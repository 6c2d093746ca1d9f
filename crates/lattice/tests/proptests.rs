//! Property-based tests for lattices and decoding.

use lre_am::{
    AcousticModel, DiagGmm, FeatureKind, FeatureTransform, GmmStateScorer, HmmTopology,
    StateInventory,
};
use lre_dsp::FrameMatrix;
use lre_lattice::{decode, expected_ngram_counts_cn, DecoderConfig, Edge, Lattice};
use proptest::prelude::*;

/// Random layered DAG lattice: `layers` node layers with random edges
/// between consecutive layers (guaranteed connected start→end).
fn layered_lattice() -> impl Strategy<Value = Lattice> {
    (2usize..6, 1usize..4, 0u64..10_000).prop_map(|(layers, width, seed)| {
        // Deterministic pseudo-random from seed, no rand dependency needed.
        let mut state = seed | 1;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        let mut edges = Vec::new();
        // Node 0 = start; layer l has `width` nodes; final node = end.
        let node_of = |layer: usize, i: usize| 1 + (layer * width) + i;
        let num_nodes = 2 + layers * width;
        let end = num_nodes - 1;
        for i in 0..width {
            edges.push(Edge {
                from: 0,
                to: node_of(0, i),
                phone: (next() % 7) as u16,
                log_score: -((next() % 100) as f32) / 50.0,
            });
        }
        for l in 1..layers {
            for i in 0..width {
                // Connect every node to at least one node in the next layer.
                let j = (next() as usize) % width;
                edges.push(Edge {
                    from: node_of(l - 1, i),
                    to: node_of(l, j),
                    phone: (next() % 7) as u16,
                    log_score: -((next() % 100) as f32) / 50.0,
                });
                edges.push(Edge {
                    from: node_of(l - 1, i),
                    to: node_of(l, i),
                    phone: (next() % 7) as u16,
                    log_score: -((next() % 100) as f32) / 50.0,
                });
            }
        }
        for i in 0..width {
            edges.push(Edge {
                from: node_of(layers - 1, i),
                to: end,
                phone: (next() % 7) as u16,
                log_score: -((next() % 100) as f32) / 50.0,
            });
        }
        Lattice::new(num_nodes, edges, 0, end)
    })
}

proptest! {
    #[test]
    fn forward_backward_evidence_agrees(lat in layered_lattice()) {
        let a = lat.forward()[lat.end()];
        let b = lat.backward()[lat.start()];
        prop_assert!((a - b).abs() < 1e-3 * (1.0 + a.abs()), "α(end) {a} vs β(start) {b}");
    }

    #[test]
    fn edge_posteriors_in_unit_interval_and_cut_consistent(lat in layered_lattice()) {
        let post = lat.edge_posteriors().expect("layered lattice is connected");
        prop_assert!(post.iter().all(|&p| (-1e-4..=1.0 + 1e-3).contains(&p)));
        // Posteriors of edges leaving the start node form a probability cut.
        let from_start: f32 = lat
            .edges()
            .iter()
            .zip(&post)
            .filter(|(e, _)| e.from == lat.start())
            .map(|(_, &p)| p)
            .sum();
        prop_assert!((from_start - 1.0).abs() < 1e-3, "start cut mass {from_start}");
    }

    #[test]
    fn lattice_unigram_counts_sum_to_expected_path_length(lat in layered_lattice()) {
        let counts = lre_lattice::expected_ngram_counts_lattice(&lat, 1, 7);
        // Total unigram mass = expected number of edges on a path = number
        // of layers + 2 (layered construction: every path has equal length).
        let post = lat.edge_posteriors().unwrap();
        let expected: f32 = post.iter().sum();
        prop_assert!((counts.total() - expected).abs() < 1e-2 * (1.0 + expected));
    }
}

/// One-dimensional toy acoustic model with `p` phones at distinct means.
fn toy_am(p: usize) -> AcousticModel {
    let mut gmms = Vec::new();
    for phone in 0..p {
        for _state in 0..3 {
            let center = phone as f32 * 2.0;
            gmms.push(DiagGmm::from_params(vec![center], vec![0.4], vec![1.0], 1));
        }
    }
    AcousticModel {
        scorer: Box::new(GmmStateScorer::new(gmms)),
        topology: HmmTopology::default(),
        inventory: StateInventory::from_phone_count(p),
        feature: FeatureKind::Mfcc,
        feature_transform: FeatureTransform::identity(1),
        train_diagnostic: None,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn decoder_segments_always_tile(vals in prop::collection::vec(-1.0f32..7.0, 5..120)) {
        let am = toy_am(4);
        let feats = FrameMatrix::from_flat(1, vals.clone());
        let out = decode(&am, &feats, &DecoderConfig::default());
        prop_assert_eq!(out.num_frames, vals.len());
        prop_assert_eq!(out.segments.first().unwrap().start, 0);
        prop_assert_eq!(out.segments.last().unwrap().end, vals.len());
        for w in out.segments.windows(2) {
            prop_assert_eq!(w[0].end, w[1].start);
        }
        // Confusion network mirrors the segmentation and carries valid mass.
        prop_assert_eq!(out.network.num_slots(), out.segments.len());
        for slot in out.network.slots() {
            let mass: f32 = slot.iter().map(|e| e.prob).sum();
            prop_assert!(mass > 0.0 && mass <= 1.0 + 1e-4);
        }
        // Expected counts never exceed the slot count.
        let counts = expected_ngram_counts_cn(&out.network, 1, 4);
        prop_assert!(counts.total() <= out.network.num_slots() as f32 + 1e-3);
    }

    #[test]
    fn decoder_tracks_strong_signal(phone in 0usize..4, len in 8usize..40) {
        // A constant strong signal at a phone's mean must decode to that phone.
        let am = toy_am(4);
        let vals = vec![phone as f32 * 2.0; len];
        let out = decode(&am, &FrameMatrix::from_flat(1, vals), &DecoderConfig::default());
        prop_assert_eq!(out.segments.len(), 1);
        prop_assert_eq!(out.segments[0].phone as usize, phone);
        prop_assert!(out.network.slot(0)[0].prob > 0.5);
    }
}

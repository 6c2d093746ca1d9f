//! Property-based tests for lattices and decoding.

use lre_am::{
    AcousticModel, DiagGmm, FeatureKind, FeatureTransform, FrameScorer, GmmStateScorer,
    HmmTopology, StateInventory, STATES_PER_PHONE,
};
use lre_dsp::FrameMatrix;
use lre_lattice::{
    decode, decode_with_scratch, expected_ngram_counts_cn, viterbi, DecodeScratch, DecoderConfig,
    Edge, Lattice, PhoneSegment,
};
use proptest::prelude::*;
use std::panic::{catch_unwind, AssertUnwindSafe};

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

/// Emission "model" that hands the decoder a fixed score matrix: the frame
/// whose one feature is `t` scores as row `t`.
struct TableScorer {
    rows: Vec<f32>,
    num_states: usize,
}

impl FrameScorer for TableScorer {
    fn num_states(&self) -> usize {
        self.num_states
    }

    fn score_frame(&self, frame: &[f32], out: &mut [f32]) {
        let t = frame[0] as usize;
        out.copy_from_slice(&self.rows[t * self.num_states..(t + 1) * self.num_states]);
    }

    fn as_any(&self) -> &dyn std::any::Any {
        self
    }
}

/// The branchy dense relaxation and traceback the decoder ran before its
/// search became branch-free, kept as the reference: `(segments,
/// viterbi_score)` of the 1-best path through `scores` (`T × num_states`).
fn reference_viterbi(
    scores: &[f32],
    inv: &StateInventory,
    topo: &HmmTopology,
    cfg: &DecoderConfig,
) -> (Vec<PhoneSegment>, f32) {
    const LOOP_FLAG: u32 = 1 << 31;
    let num_states = inv.num_states();
    let num_phones = inv.num_phones();
    let t_max = scores.len() / num_states;
    let ascale = cfg.acoustic_scale;
    let (log_self, log_next) = (topo.log_self, topo.log_next);
    let mut delta_prev = vec![f32::NEG_INFINITY; num_states];
    let mut delta_cur = vec![f32::NEG_INFINITY; num_states];
    let mut bp = vec![0u32; t_max * num_states];
    for p in 0..num_phones {
        let s = inv.state_of(p, 0);
        delta_prev[s] = ascale * scores[s];
        bp[s] = s as u32;
    }
    for t in 1..t_max {
        let mut best_exit = f32::NEG_INFINITY;
        let mut best_exit_state = 0usize;
        for p in 0..num_phones {
            let s = inv.state_of(p, STATES_PER_PHONE - 1);
            let v = delta_prev[s];
            if v > best_exit {
                best_exit = v;
                best_exit_state = s;
            }
        }
        let loop_score = best_exit + log_next + cfg.phone_insertion_log;
        let frame_scores = &scores[t * num_states..(t + 1) * num_states];
        let bp_row = &mut bp[t * num_states..(t + 1) * num_states];
        for s in 0..num_states {
            let mut best = delta_prev[s] + log_self;
            let mut back = s as u32;
            if inv.is_entry(s) {
                if loop_score > best {
                    best = loop_score;
                    back = best_exit_state as u32 | LOOP_FLAG;
                }
            } else {
                let cand = delta_prev[s - 1] + log_next;
                if cand > best {
                    best = cand;
                    back = (s - 1) as u32;
                }
            }
            delta_cur[s] = best + ascale * frame_scores[s];
            bp_row[s] = back;
        }
        std::mem::swap(&mut delta_prev, &mut delta_cur);
    }

    let mut cur_state = (0..num_phones)
        .map(|p| inv.state_of(p, STATES_PER_PHONE - 1))
        .max_by(|&a, &b| delta_prev[a].partial_cmp(&delta_prev[b]).unwrap())
        .expect("at least one phone");
    if delta_prev[cur_state] == f32::NEG_INFINITY {
        cur_state = (0..num_states)
            .max_by(|&a, &b| delta_prev[a].partial_cmp(&delta_prev[b]).unwrap())
            .unwrap();
    }
    let viterbi_score = delta_prev[cur_state];
    let mut boundaries = Vec::new();
    let mut phones_rev = Vec::new();
    let mut t = t_max - 1;
    loop {
        let (phone, _) = inv.phone_of(cur_state);
        let back = bp[t * num_states + cur_state];
        if t == 0 {
            boundaries.push(0usize);
            phones_rev.push(phone as u16);
            break;
        }
        if back & LOOP_FLAG != 0 {
            boundaries.push(t);
            phones_rev.push(phone as u16);
            cur_state = (back & !LOOP_FLAG) as usize;
        } else {
            cur_state = back as usize;
        }
        t -= 1;
    }
    boundaries.reverse();
    phones_rev.reverse();
    let segments = boundaries
        .iter()
        .zip(&phones_rev)
        .enumerate()
        .map(|(i, (&start, &phone))| PhoneSegment {
            phone,
            start,
            end: boundaries.get(i + 1).copied().unwrap_or(t_max),
        })
        .collect();
    (segments, viterbi_score)
}

/// A `t_max × 3·phones` score matrix drawn from `seed`. Scores come from a
/// palette of a few values, so exact ties are common; `specials` bit 0 adds
/// −∞ entries and whole −∞ frames, bit 1 +∞ entries; `copies` phones take
/// over another phone's three columns — one lane over, eight phones over
/// (the same exit lane) or anywhere — so their exit states tie on every
/// frame.
fn score_matrix(phones: usize, t_max: usize, seed: u64, specials: u32, copies: usize) -> Vec<f32> {
    let mut state = seed | 1;
    let mut next = move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        state
    };
    let n = phones * STATES_PER_PHONE;
    let mut scores: Vec<f32> = (0..t_max * n)
        .map(|_| match next() % 64 {
            0 if specials & 1 != 0 => f32::NEG_INFINITY,
            1 if specials & 2 != 0 => f32::INFINITY,
            r => -0.5 * (r % 6) as f32,
        })
        .collect();
    if specials & 1 != 0 {
        for row in scores.chunks_exact_mut(n) {
            if next() % 16 == 0 {
                row.fill(f32::NEG_INFINITY);
            }
        }
    }
    for _ in 0..copies {
        let from = next() as usize % phones;
        let to = match next() % 3 {
            0 => from + 1,
            1 => from + 8,
            _ => next() as usize,
        } % phones;
        for row in scores.chunks_exact_mut(n) {
            for k in 0..STATES_PER_PHONE {
                row[to * STATES_PER_PHONE + k] = row[from * STATES_PER_PHONE + k];
            }
        }
    }
    scores
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// The branch-free search returns the reference's segments and score,
    /// bit for bit, or panics where it panics (a NaN exit reaches the
    /// traceback's `partial_cmp`). `decode_with_scratch` returns the same
    /// wherever it returns: a segment whose posteriors are NaN (a whole −∞
    /// frame, an infinite score minus an infinite one) is refused by
    /// `ConfusionNetwork::new` after the search, so the search is also
    /// compared on its own.
    #[test]
    fn branch_free_viterbi_matches_the_branchy_reference(
        phones in prop::sample::select(vec![1usize, 7, 8, 9, 43, 64]),
        t_max in 1usize..48,
        seed in any::<u64>(),
        specials in 0u32..4,
        copies in 0usize..12,
    ) {
        let scores = score_matrix(phones, t_max, seed, specials, copies);
        let inv = StateInventory::from_phone_count(phones);
        let am = AcousticModel {
            scorer: Box::new(TableScorer { rows: scores.clone(), num_states: inv.num_states() }),
            topology: HmmTopology::default(),
            inventory: inv.clone(),
            feature: FeatureKind::Mfcc,
            feature_transform: FeatureTransform::identity(1),
            train_diagnostic: None,
        };
        let feats = FrameMatrix::from_flat(1, (0..t_max).map(|t| t as f32).collect());
        let cfg = DecoderConfig::default();
        let want = catch_unwind(|| reference_viterbi(&scores, &inv, &am.topology, &cfg));
        let search = catch_unwind(AssertUnwindSafe(|| {
            viterbi(&inv, &am.topology, &scores, &cfg, &mut DecodeScratch::new())
        }));
        let decoded = catch_unwind(AssertUnwindSafe(|| {
            let out = decode_with_scratch(&am, &feats, &cfg, &mut DecodeScratch::new());
            (out.segments, out.viterbi_score)
        }));
        match (search, want) {
            (Ok(got), Ok(want)) => {
                assert_same_path(&got, &want);
                if let Ok(decoded) = decoded {
                    assert_same_path(&decoded, &want);
                }
            }
            (got, want) => assert_eq!(
                got.is_ok(),
                want.is_ok(),
                "the search and the reference disagree on panicking"
            ),
        }
    }
}

fn assert_same_path(
    (segs, score): &(Vec<PhoneSegment>, f32),
    (want_segs, want_score): &(Vec<PhoneSegment>, f32),
) {
    assert_eq!(segs, want_segs);
    // A NaN's payload is the hardware's to pick; NaN meets NaN.
    assert!(
        score.to_bits() == want_score.to_bits() || (score.is_nan() && want_score.is_nan()),
        "viterbi_score {score} vs {want_score}"
    );
}

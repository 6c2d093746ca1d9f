//! Full end-to-end system tests at smoke scale. These build the complete
//! six-front-end experiment (minutes in release, much longer in debug), so
//! they are `#[ignore]` by default:
//!
//! ```text
//! cargo test --release --test full_system -- --ignored
//! ```

use lre_repro::am::extract_features;
use lre_repro::corpus::{render_utterance, Duration, Scale};
use lre_repro::dba::{
    dba::{baseline_votes, run_dba},
    fuse_duration, select_tr_dba, DbaVariant, Experiment, ExperimentConfig,
};
use lre_repro::dsp::FrameMatrix;
use lre_repro::eval::pooled_eer;
use lre_repro::lattice::DecodeScratch;
use lre_repro::vsm::SparseVec;

#[test]
#[ignore = "builds the full experiment; run with --release -- --ignored"]
fn full_system_invariants() {
    let exp = Experiment::build(&ExperimentConfig::new(Scale::Smoke, 42));

    // --- Cached supervectors are the public leaves' chain, bit for bit ---------
    // render → single-kind features → decode + count → TFLLR, for the first
    // utterance of train, dev and every test duration, per front-end.
    let bits =
        |sv: &SparseVec| -> Vec<(u32, u32)> { sv.iter().map(|(i, v)| (i, v.to_bits())).collect() };
    for (q, fe) in exp.frontends.iter().enumerate() {
        let mut firsts = vec![
            (exp.ds.train[0], &exp.train_svs[q][0]),
            (exp.ds.dev[0], &exp.dev_svs[q][0]),
        ];
        for (di, &d) in Duration::all().iter().enumerate() {
            firsts.push((exp.ds.test_set(d)[0], &exp.test_svs[q][di][0]));
        }
        let scaler = fe.scaler.as_ref().expect("build fits every scaler");
        for (utt, cached) in firsts {
            let r = render_utterance(&utt, exp.ds.language(utt.language), &exp.inv);
            let feats = extract_features(&r.samples, fe.am.feature);
            let raw = fe.supervector_from_features(
                &feats,
                &mut FrameMatrix::new(feats.dim()),
                &mut DecodeScratch::new(),
            );
            assert_eq!(
                bits(&scaler.transformed(&raw)),
                bits(cached),
                "{}: {utt:?}",
                fe.spec.name
            );
        }
    }

    // --- Baseline subsystems beat chance on every duration -----------------------
    for row in exp.baseline_summary() {
        assert!(
            row.eer < 0.45,
            "{} {} at chance: EER {:.3}",
            row.subsystem,
            row.duration.name(),
            row.eer
        );
    }

    // --- Vote selection: size shrinks and error rate falls as V grows -------------
    let votes = baseline_votes(&exp, Duration::S30);
    let truth = &exp.test_labels[Experiment::duration_index(Duration::S30)];
    let mut prev_n = usize::MAX;
    let mut low_v_err = None;
    let mut high_v_err = None;
    for v in 1..=6u8 {
        let sel = select_tr_dba(&votes, v);
        assert!(sel.len() <= prev_n, "selection must shrink with V");
        prev_n = sel.len();
        if !sel.is_empty() {
            let err =
                sel.iter().filter(|p| p.label != truth[p.utt]).count() as f64 / sel.len() as f64;
            if v == 1 {
                low_v_err = Some(err);
            }
            high_v_err = Some(err);
        }
    }
    if let (Some(lo), Some(hi)) = (low_v_err, high_v_err) {
        assert!(
            hi <= lo + 0.05,
            "error rate should not grow with V: V=1 {lo}, high-V {hi}"
        );
    }

    // --- DBA-M2 with a sane V does not catastrophically degrade -------------------
    let d = Duration::S10;
    let di = Experiment::duration_index(d);
    let labels = &exp.test_labels[di];
    let out = run_dba(&exp, DbaVariant::M2, 3);
    let mean_before: f64 = (0..exp.num_subsystems())
        .map(|q| pooled_eer(&exp.baseline_test_scores[q][di], labels))
        .sum::<f64>()
        / 6.0;
    let mean_after: f64 = (0..6)
        .map(|q| pooled_eer(&out.test_scores[di][q], labels))
        .sum::<f64>()
        / 6.0;
    assert!(
        mean_after <= mean_before + 0.05,
        "DBA-M2 degraded badly: {mean_before} -> {mean_after}"
    );

    // --- Fusion beats the mean single subsystem -----------------------------------
    let fused = fuse_duration(
        &exp,
        &exp.baseline_dev_scores,
        &exp.baseline_test_scores
            .iter()
            .map(|per| per[di].clone())
            .collect::<Vec<_>>(),
        d,
        None,
    );
    let fused_eer = pooled_eer(&fused.test_scores, labels);
    assert!(
        fused_eer <= mean_before + 0.02,
        "fusion ({fused_eer}) should not lose to the mean single ({mean_before})"
    );
}

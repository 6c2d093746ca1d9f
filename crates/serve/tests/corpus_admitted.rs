//! The door's admission rule refuses no audio the corpus renders: every
//! test-set utterance of the smoke and demo datasets at seed 42, at each
//! of the three durations, passes `admissible`, far inside the bound.

use lre_corpus::{render_utterance, Dataset, DatasetConfig, Duration, Scale, UttSpec};
use lre_dsp::MAX_SAMPLE_ABS;
use lre_phone::UniversalInventory;
use lre_serve::server::admissible;

/// Render every test utterance of `scale` at seed 42 on two threads,
/// assert the door admits each, and return how many there were and the
/// loudest sample among them.
fn test_sets_pass_the_door(scale: Scale) -> (usize, f32) {
    let ds = Dataset::generate(DatasetConfig::new(scale, 42));
    let inv = UniversalInventory::new();
    let specs: Vec<&UttSpec> = Duration::all()
        .iter()
        .flat_map(|&d| ds.test_set(d))
        .collect();
    let half = specs.len().div_ceil(2);
    let loudest = std::thread::scope(|s| {
        let workers: Vec<_> = specs
            .chunks(half)
            .map(|chunk| {
                let (ds, inv) = (&ds, &inv);
                s.spawn(move || {
                    chunk.iter().fold(0.0_f32, |loudest, spec| {
                        let lang = ds.language(spec.language);
                        let samples = render_utterance(spec, lang, inv).samples;
                        assert!(admissible(&samples), "{spec:?}");
                        samples.iter().fold(loudest, |m, x| m.max(x.abs()))
                    })
                })
            })
            .collect();
        workers
            .into_iter()
            .map(|w| w.join().expect("renderer"))
            .fold(0.0_f32, f32::max)
    });
    (specs.len(), loudest)
}

#[test]
fn smoke_test_sets_pass_the_door() {
    let (n, loudest) = test_sets_pass_the_door(Scale::Smoke);
    eprintln!("smoke: {n} utterances, loudest sample {loudest}");
    assert!(n > 0 && loudest < 1e5 && loudest < MAX_SAMPLE_ABS);
}

/// 2 760 utterances: about 2 s in release on two cores.
#[test]
fn demo_test_sets_pass_the_door() {
    let (n, loudest) = test_sets_pass_the_door(Scale::Demo);
    eprintln!("demo: {n} utterances, loudest sample {loudest}");
    assert!(n > 0 && loudest < 1e5 && loudest < MAX_SAMPLE_ABS);
}

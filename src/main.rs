//! `lre` — command-line interface to the DBA language-recognition stack.
//!
//! ```text
//! lre corpus-stats   [--seed N]                      corpus inventory summary
//! lre synth          [--lang L] [--seed N] [--out F] render one utterance (f32 LE raw)
//! lre decode         [--lang L] [--seed N]           decode through every front-end
//! lre experiment     [--scale S] [--seed N] [--v V]  baseline + one DBA round
//! ```

use lre_repro::am::extract_features;
use lre_repro::corpus::{
    render_utterance, Channel, Dataset, DatasetConfig, Duration, LanguageId, Scale, UttSpec,
};
use lre_repro::dba::{
    dba::run_dba, standard_subsystems, DbaVariant, Experiment, ExperimentConfig, Frontend,
};
use lre_repro::eval::pooled_eer;
use lre_repro::lattice::{decode, DecoderConfig};
use lre_repro::phone::UniversalInventory;
use std::io::Write;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("corpus-stats") => corpus_stats(&args[1..]),
        Some("synth") => synth(&args[1..]),
        Some("decode") => decode_cmd(&args[1..]),
        Some("experiment") => experiment(&args[1..]),
        _ => {
            eprintln!(
                "usage: lre <corpus-stats|synth|decode|experiment> [options]\n\
                 \n  corpus-stats [--seed N]\n  synth [--lang name] [--seed N] [--out file.f32]\n\
                 \n  decode [--lang name] [--seed N]\n  experiment [--scale smoke|demo|paper] [--seed N] [--v V]"
            );
            std::process::exit(2);
        }
    }
}

fn opt(args: &[String], flag: &str) -> Option<String> {
    args.iter()
        .position(|a| a == flag)
        .and_then(|i| args.get(i + 1).cloned())
}

fn lang_by_name(name: &str) -> LanguageId {
    LanguageId::all()
        .into_iter()
        .find(|l| l.name() == name)
        .unwrap_or_else(|| {
            eprintln!("unknown language {name}; one of:");
            for l in LanguageId::all() {
                eprintln!("  {}", l.name());
            }
            std::process::exit(2);
        })
}

fn corpus_stats(args: &[String]) {
    let seed: u64 = opt(args, "--seed")
        .and_then(|s| s.parse().ok())
        .unwrap_or(42);
    let inv = UniversalInventory::new();
    let ds = Dataset::generate(DatasetConfig::new(Scale::Demo, seed));
    println!("universal phone inventory: {} phones", inv.len());
    println!(
        "languages: {} ({} LRE09 targets + HU + CZ)",
        LanguageId::all().len(),
        23
    );
    println!(
        "demo split: train {} / dev {} / test {}x3 durations / AM {}x5 recognizer languages",
        ds.train.len(),
        ds.dev.len(),
        ds.test_set(Duration::S30).len(),
        ds.am_train[0].1.len()
    );
    for set in lre_repro::phone::standard_phone_sets(&inv) {
        println!("phone set {:>2}: {} phones", set.name(), set.len());
    }
}

fn synth(args: &[String]) {
    let seed: u64 = opt(args, "--seed")
        .and_then(|s| s.parse().ok())
        .unwrap_or(1);
    let lang = lang_by_name(&opt(args, "--lang").unwrap_or_else(|| "french".into()));
    let out = opt(args, "--out").unwrap_or_else(|| "utterance.f32".into());
    let inv = UniversalInventory::new();
    let ds = Dataset::generate(DatasetConfig::new(Scale::Smoke, 42));
    let utt = UttSpec {
        language: lang,
        speaker_seed: seed,
        channel: Channel::telephone(30.0),
        num_frames: 300,
        seed,
    };
    let r = render_utterance(&utt, ds.language(lang), &inv);
    let mut f = std::fs::File::create(&out).expect("create output");
    for s in &r.samples {
        f.write_all(&s.to_le_bytes()).unwrap();
    }
    println!(
        "wrote {} samples ({:.2}s at 8 kHz, raw f32 LE) of synthetic {} to {out}",
        r.samples.len(),
        r.samples.len() as f32 / 8000.0,
        lang.name()
    );
    println!("play with: ffplay -f f32le -ar 8000 -i {out}");
}

fn decode_cmd(args: &[String]) {
    let seed: u64 = opt(args, "--seed")
        .and_then(|s| s.parse().ok())
        .unwrap_or(1);
    let lang = lang_by_name(&opt(args, "--lang").unwrap_or_else(|| "russian".into()));
    let inv = UniversalInventory::new();
    let ds = Dataset::generate(DatasetConfig::new(Scale::Smoke, 42));
    let utt = UttSpec {
        language: lang,
        speaker_seed: seed,
        channel: Channel::telephone(30.0),
        num_frames: 200,
        seed,
    };
    let r = render_utterance(&utt, ds.language(lang), &inv);
    println!(
        "decoding one {} utterance through all six front-ends…",
        lang.name()
    );
    for spec in standard_subsystems() {
        let fe = Frontend::train(spec, &ds, &inv, 2, DecoderConfig::default(), 7);
        let mut feats = extract_features(&r.samples, fe.am.feature);
        fe.am.feature_transform.apply(&mut feats);
        let out = decode(&fe.am, &feats, &fe.decoder);
        let syms: Vec<&str> = out
            .segments
            .iter()
            .map(|s| fe.phone_set.symbol(s.phone as usize))
            .collect();
        println!("{:<12}: {}", spec.name, syms.join(" "));
    }
}

fn experiment(args: &[String]) {
    let seed: u64 = opt(args, "--seed")
        .and_then(|s| s.parse().ok())
        .unwrap_or(42);
    let scale = opt(args, "--scale")
        .and_then(|s| s.parse().ok())
        .unwrap_or(Scale::Smoke);
    let v: u8 = opt(args, "--v").and_then(|s| s.parse().ok()).unwrap_or(3);
    let exp = Experiment::build(&ExperimentConfig::new(scale, seed));
    println!("baseline:");
    for row in exp.baseline_summary() {
        println!(
            "  {:<12} {:>4}: EER {:5.2}%",
            row.subsystem,
            row.duration.name(),
            row.eer * 100.0
        );
    }
    for variant in [DbaVariant::M1, DbaVariant::M2] {
        let out = run_dba(&exp, variant, v);
        println!(
            "{} (V={v}): selected {} ({:.1}% label error)",
            variant.name(),
            out.num_selected(),
            out.selection_error_rate * 100.0
        );
        for (di, &d) in Duration::all().iter().enumerate() {
            let labels = &exp.test_labels[di];
            let mean: f64 = (0..exp.num_subsystems())
                .map(|q| pooled_eer(&out.test_scores[di][q], labels))
                .sum::<f64>()
                / exp.num_subsystems() as f64;
            println!(
                "  {:>4}: mean subsystem EER {:5.2}%",
                d.name(),
                mean * 100.0
            );
        }
    }
}

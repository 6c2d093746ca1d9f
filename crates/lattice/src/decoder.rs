//! Token-passing phone-loop Viterbi decoder with confusion-network output.

use crate::confusion::{ConfusionNetwork, SlotEntry};
use lre_am::{AcousticModel, StateInventory, STATES_PER_PHONE};
use lre_dsp::FrameMatrix;

/// Decoder parameters.
#[derive(Clone, Copy, Debug)]
pub struct DecoderConfig {
    /// Scale applied to emission log-scores (classic acoustic scale).
    pub acoustic_scale: f32,
    /// Log penalty added on every phone-loop transition (controls insertion
    /// rate, like HVite's word insertion penalty).
    pub phone_insertion_log: f32,
    /// Keep at most this many phone alternatives per confusion slot.
    pub top_k: usize,
    /// Temperature on the per-segment phone posteriors (higher = peakier).
    pub posterior_scale: f32,
    #[doc(hidden)]
    pub scoring: Exact,
}

// `bench-e2e/src/walk.rs:191` is held byte for byte and still spells its
// emission call `score_all_frames_into_mode(am, feats, decoder.scoring, buf)`.
// One arithmetic is left, so the argument is a zero-sized marker, never
// serialized. ROADMAP item 2 (benchmark v2) deletes this block and the field.
#[doc(hidden)]
#[derive(Clone, Copy, Debug, Default)]
pub struct Exact;
#[doc(hidden)]
pub fn score_all_frames_into_mode(am: &AcousticModel, f: &FrameMatrix, _: Exact, s: &mut Vec<f32>) {
    score_all_frames_into(am, f, s)
}

impl Default for DecoderConfig {
    fn default() -> Self {
        Self {
            acoustic_scale: 0.33,
            phone_insertion_log: -1.0,
            top_k: 4,
            posterior_scale: 1.0,
            scoring: Exact,
        }
    }
}

impl lre_artifact::ArtifactWrite for DecoderConfig {
    const KIND: [u8; 4] = *b"DCFG";
    // v3 dropped the beam flag and width; v4 drops the scoring-mode byte.
    const VERSION: u32 = 4;

    fn write_payload(&self, w: &mut lre_artifact::ArtifactWriter) {
        w.put_f32(self.acoustic_scale);
        w.put_f32(self.phone_insertion_log);
        w.put_u32(self.top_k as u32);
        w.put_f32(self.posterior_scale);
    }
}

impl lre_artifact::ArtifactRead for DecoderConfig {
    fn read_payload(
        r: &mut lre_artifact::ArtifactReader,
    ) -> Result<DecoderConfig, lre_artifact::ArtifactError> {
        let acoustic_scale = r.get_f32()?;
        let phone_insertion_log = r.get_f32()?;
        let top_k = r.get_u32()? as usize;
        let posterior_scale = r.get_f32()?;
        if top_k == 0 {
            return Err(lre_artifact::ArtifactError::Corrupt(
                "decoder top_k is zero",
            ));
        }
        Ok(DecoderConfig {
            acoustic_scale,
            phone_insertion_log,
            top_k,
            posterior_scale,
            scoring: Exact,
        })
    }
}

/// One decoded phone segment, `[start, end)` in frames.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct PhoneSegment {
    pub phone: u16,
    pub start: usize,
    pub end: usize,
}

/// Result of decoding one utterance.
#[derive(Clone, Debug)]
pub struct DecodeOutput {
    /// 1-best segmentation from the Viterbi pass.
    pub segments: Vec<PhoneSegment>,
    /// Posterior confusion network, one slot per segment.
    pub network: ConfusionNetwork,
    /// Number of frames decoded (for RT-factor accounting).
    pub num_frames: usize,
    /// Total log score of the 1-best path (acoustics + transitions).
    pub viterbi_score: f32,
}

/// Emission scores for all frames: flat `T × num_states` buffer.
pub fn score_all_frames(am: &AcousticModel, feats: &FrameMatrix) -> Vec<f32> {
    let mut scores = Vec::new();
    score_all_frames_into(am, feats, &mut scores);
    scores
}

/// [`score_all_frames`] into a caller-owned buffer (resized internally), so
/// repeated decodes can reuse one allocation. Scoring goes through the
/// scorer's batched [`lre_am::FrameScorer::score_block`] path.
pub fn score_all_frames_into(am: &AcousticModel, feats: &FrameMatrix, scores: &mut Vec<f32>) {
    let s = am.scorer.num_states();
    let t_max = feats.num_frames();
    scores.clear();
    scores.resize(t_max * s, 0.0);
    am.scorer.score_block(feats.as_slice(), feats.dim(), scores);
}

/// Reusable decoder working memory: emission-score block, Viterbi rows,
/// back-pointer matrix. One instance per worker thread
/// amortizes every per-utterance allocation of the hot path; buffers grow to
/// the largest utterance seen and stay there.
#[derive(Default)]
pub struct DecodeScratch {
    scores: Vec<f32>,
    delta_prev: Vec<f32>,
    delta_cur: Vec<f32>,
    bp: Vec<u32>,
    phone_scores: Vec<f32>,
}

impl DecodeScratch {
    pub fn new() -> Self {
        Self::default()
    }
}

/// Back-pointer encoding: ordinary values are the previous dense state
/// index; values with the high bit set mean "entered via the phone loop from
/// exit state `bp & !LOOP_FLAG` at t-1".
const LOOP_FLAG: u32 = 1 << 31;

/// Decode one utterance into a 1-best segmentation and a posterior
/// confusion network.
pub fn decode(am: &AcousticModel, feats: &FrameMatrix, cfg: &DecoderConfig) -> DecodeOutput {
    decode_with_scratch(am, feats, cfg, &mut DecodeScratch::new())
}

/// [`decode`] with caller-owned working memory. Batch drivers hold one
/// [`DecodeScratch`] per worker thread and decode thousands of utterances
/// without re-allocating the score block, Viterbi rows or back-pointer
/// matrix.
pub fn decode_with_scratch(
    am: &AcousticModel,
    feats: &FrameMatrix,
    cfg: &DecoderConfig,
    scratch: &mut DecodeScratch,
) -> DecodeOutput {
    let inv = &am.inventory;
    let num_states = inv.num_states();
    let num_phones = inv.num_phones();
    let t_max = feats.num_frames();
    if t_max == 0 {
        return DecodeOutput {
            segments: Vec::new(),
            network: ConfusionNetwork::new(vec![]),
            num_frames: 0,
            viterbi_score: 0.0,
        };
    }

    score_all_frames_into(am, feats, &mut scratch.scores);
    let scores = &scratch.scores;
    let ascale = cfg.acoustic_scale;
    let (log_self, log_next) = (am.topology.log_self, am.topology.log_next);

    // --- Viterbi ------------------------------------------------------------------
    scratch.delta_prev.clear();
    scratch.delta_prev.resize(num_states, f32::NEG_INFINITY);
    scratch.delta_cur.clear();
    scratch.delta_cur.resize(num_states, f32::NEG_INFINITY);
    scratch.bp.clear();
    scratch.bp.resize(t_max * num_states, 0);
    let delta_prev = &mut scratch.delta_prev;
    let delta_cur = &mut scratch.delta_cur;
    let bp = &mut scratch.bp;

    // t = 0: only phone-entry states are reachable.
    for p in 0..num_phones {
        let s = inv.state_of(p, 0);
        delta_prev[s] = ascale * scores[s];
        bp[s] = s as u32; // self-start sentinel (never followed past t=0)
    }

    // Dense relaxation over every state.
    for t in 1..t_max {
        // Best phone exit at t-1 (for the loop transition).
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
            // Self loop.
            let mut best = delta_prev[s] + log_self;
            let mut back = s as u32;
            if inv.is_entry(s) {
                // Phone-loop entry.
                if loop_score > best {
                    best = loop_score;
                    back = best_exit_state as u32 | LOOP_FLAG;
                }
            } else {
                // Advance from the previous state of the same phone.
                let cand = delta_prev[s - 1] + log_next;
                if cand > best {
                    best = cand;
                    back = (s - 1) as u32;
                }
            }
            delta_cur[s] = best + ascale * frame_scores[s];
            bp_row[s] = back;
        }
        std::mem::swap(delta_prev, delta_cur);
    }

    // --- Traceback ------------------------------------------------------------------
    // Terminate at the best phone-exit state.
    let mut cur_state = (0..num_phones)
        .map(|p| inv.state_of(p, STATES_PER_PHONE - 1))
        .max_by(|&a, &b| delta_prev[a].partial_cmp(&delta_prev[b]).unwrap())
        .expect("at least one phone");
    // If nothing is finite at an exit state (extremely short utterance),
    // fall back to the globally best state.
    if delta_prev[cur_state] == f32::NEG_INFINITY {
        cur_state = (0..num_states)
            .max_by(|&a, &b| delta_prev[a].partial_cmp(&delta_prev[b]).unwrap())
            .unwrap();
    }
    let viterbi_score = delta_prev[cur_state];

    let mut boundaries = Vec::new(); // segment start times, reversed
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
            // Segment boundary: this phone started at t.
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

    let mut segments = Vec::with_capacity(boundaries.len());
    for (i, (&start, &phone)) in boundaries.iter().zip(&phones_rev).enumerate() {
        let end = boundaries.get(i + 1).copied().unwrap_or(t_max);
        segments.push(PhoneSegment { phone, start, end });
    }

    // --- Segment posteriors → confusion network -------------------------------------
    let slots = segments
        .iter()
        .map(|seg| segment_slot(seg, scores, inv, cfg, &mut scratch.phone_scores))
        .collect();

    DecodeOutput {
        segments,
        network: ConfusionNetwork::new(slots),
        num_frames: t_max,
        viterbi_score,
    }
}

/// Score every phone over a segment (uniform 3-state alignment over cached
/// frame scores), softmax into posteriors, keep the top-k entries.
fn segment_slot(
    seg: &PhoneSegment,
    scores: &[f32],
    inv: &StateInventory,
    cfg: &DecoderConfig,
    phone_scores: &mut Vec<f32>,
) -> Vec<SlotEntry> {
    let num_states = inv.num_states();
    let num_phones = inv.num_phones();
    let len = seg.end - seg.start;
    debug_assert!(len > 0);

    // Mean per-frame log score per phone keeps the softmax temperature
    // duration-independent.
    phone_scores.clear();
    phone_scores.resize(num_phones, 0.0);
    for (pos, t) in (seg.start..seg.end).enumerate() {
        let st = StateInventory::uniform_state(pos, len);
        let frame = &scores[t * num_states..(t + 1) * num_states];
        for (p, ps) in phone_scores.iter_mut().enumerate() {
            *ps += frame[inv.state_of(p, st)];
        }
    }
    let inv_len = cfg.posterior_scale / len as f32;
    let mut max = f32::NEG_INFINITY;
    for ps in phone_scores.iter_mut() {
        *ps *= inv_len;
        max = max.max(*ps);
    }
    phone_scores.iter_mut().for_each(|ps| *ps -= max);
    lre_linalg::expf_in_place(phone_scores);
    let mut denom = 0.0f32;
    for &e in phone_scores.iter() {
        denom += e;
    }

    // Top-k selection (num_phones is ≤ 64; a partial selection loop is fine).
    let mut entries: Vec<SlotEntry> = phone_scores
        .iter()
        .enumerate()
        .map(|(p, &s)| SlotEntry {
            phone: p as u16,
            prob: s / denom,
        })
        .collect();
    entries.sort_unstable_by(|a, b| b.prob.partial_cmp(&a.prob).unwrap());
    entries.truncate(cfg.top_k.max(1));
    entries
}

#[cfg(test)]
mod tests {
    use super::*;
    use lre_am::{AcousticModel, DiagGmm, FeatureKind, GmmStateScorer, HmmTopology};

    /// Tiny synthetic model: 2 phones × 3 states over 1-D features. Phone 0's
    /// states like negative values, phone 1's like positive.
    fn toy_am() -> AcousticModel {
        let mut gmms = Vec::new();
        for phone in 0..2 {
            for state in 0..3 {
                let center = if phone == 0 { -2.0 } else { 2.0 } + 0.1 * state as f32;
                gmms.push(DiagGmm::from_params(vec![center], vec![0.5], vec![1.0], 1));
            }
        }
        AcousticModel {
            scorer: Box::new(GmmStateScorer::new(gmms)),
            topology: HmmTopology::default(),
            inventory: lre_am::StateInventory::from_phone_count(2),
            feature: FeatureKind::Mfcc,
            feature_transform: lre_am::FeatureTransform::identity(1),
            train_diagnostic: None,
        }
    }

    fn feats(vals: &[f32]) -> FrameMatrix {
        FrameMatrix::from_flat(1, vals.to_vec())
    }

    #[test]
    fn decodes_alternating_phones() {
        let am = toy_am();
        // 8 frames of phone 0 territory, then 8 of phone 1, then 8 of phone 0.
        let mut v = vec![-2.0f32; 8];
        v.extend(vec![2.0f32; 8]);
        v.extend(vec![-2.0f32; 8]);
        let out = decode(&am, &feats(&v), &DecoderConfig::default());
        let phones: Vec<u16> = out.segments.iter().map(|s| s.phone).collect();
        assert_eq!(phones, vec![0, 1, 0], "segments: {:?}", out.segments);
        // Boundaries near 8 and 16.
        assert!((out.segments[1].start as i64 - 8).abs() <= 2);
        assert!((out.segments[2].start as i64 - 16).abs() <= 2);
    }

    #[test]
    fn segments_tile_the_utterance() {
        let am = toy_am();
        let v: Vec<f32> = (0..40)
            .map(|i| if (i / 5) % 2 == 0 { -2.0 } else { 2.0 })
            .collect();
        let out = decode(&am, &feats(&v), &DecoderConfig::default());
        assert_eq!(out.segments.first().unwrap().start, 0);
        assert_eq!(out.segments.last().unwrap().end, 40);
        for w in out.segments.windows(2) {
            assert_eq!(w[0].end, w[1].start);
        }
    }

    #[test]
    fn network_matches_segments_and_probs_valid() {
        let am = toy_am();
        let v = vec![-2.0f32; 10];
        let out = decode(&am, &feats(&v), &DecoderConfig::default());
        assert_eq!(out.network.num_slots(), out.segments.len());
        for (slot, seg) in out.network.slots().iter().zip(&out.segments) {
            // Top entry agrees with the Viterbi phone.
            assert_eq!(slot[0].phone, seg.phone);
            let mass: f32 = slot.iter().map(|e| e.prob).sum();
            assert!(mass > 0.0 && mass <= 1.0 + 1e-4);
        }
    }

    #[test]
    fn confident_frames_give_confident_posteriors() {
        let am = toy_am();
        let out = decode(&am, &feats(&[-2.0f32; 12]), &DecoderConfig::default());
        assert!(out.network.slot(0)[0].prob > 0.9);
    }

    #[test]
    fn empty_input_is_safe() {
        let am = toy_am();
        let out = decode(&am, &FrameMatrix::new(1), &DecoderConfig::default());
        assert!(out.segments.is_empty());
        assert_eq!(out.num_frames, 0);
    }

    #[test]
    fn single_frame_utterance() {
        let am = toy_am();
        let out = decode(&am, &feats(&[2.0]), &DecoderConfig::default());
        assert_eq!(out.segments.len(), 1);
        assert_eq!(
            out.segments[0],
            PhoneSegment {
                phone: 1,
                start: 0,
                end: 1
            }
        );
    }

    #[test]
    fn top_k_limits_slot_size() {
        let am = toy_am();
        let cfg = DecoderConfig {
            top_k: 1,
            ..Default::default()
        };
        let out = decode(&am, &feats(&[0.0f32; 6]), &cfg);
        assert!(out.network.slots().iter().all(|s| s.len() == 1));
    }

    fn wavy_feats(n: usize) -> FrameMatrix {
        let v: Vec<f32> = (0..n).map(|i| 2.2 * ((i as f32) * 0.37).sin()).collect();
        feats(&v)
    }

    #[test]
    fn decoder_config_artifact_roundtrip() {
        use lre_artifact::{ArtifactRead, ArtifactWrite};
        let cfg = DecoderConfig {
            acoustic_scale: 0.25,
            phone_insertion_log: -2.5,
            top_k: 7,
            posterior_scale: 1.5,
            ..Default::default()
        };
        let back = DecoderConfig::from_artifact_bytes(&cfg.to_artifact_bytes()).unwrap();
        assert_eq!(back.acoustic_scale, cfg.acoustic_scale);
        assert_eq!(back.phone_insertion_log, cfg.phone_insertion_log);
        assert_eq!(back.top_k, cfg.top_k);
        assert_eq!(back.posterior_scale, cfg.posterior_scale);
    }

    /// A v3 payload (the four fields plus a scoring-mode byte) is refused by
    /// version, not read as four fields with a trailing byte.
    #[test]
    fn previous_format_decoder_config_is_refused_typed() {
        use lre_artifact::{ArtifactError, ArtifactRead, ArtifactWrite, ArtifactWriter};
        let mut w = ArtifactWriter::new();
        DecoderConfig::default().write_payload(&mut w);
        w.put_u8(0);
        let v3 = lre_artifact::seal(DecoderConfig::KIND, 3, &w.into_bytes());
        assert!(matches!(
            DecoderConfig::from_artifact_bytes(&v3),
            Err(ArtifactError::UnsupportedVersion {
                expected: 4,
                found: 3
            })
        ));
    }

    #[test]
    fn scratch_reuse_across_utterances_matches_fresh_decode() {
        let am = toy_am();
        let mut scratch = DecodeScratch::new();
        // Decode a long utterance first so every buffer is oversized, then a
        // short one: stale state must not leak.
        let long = wavy_feats(64);
        let _ = decode_with_scratch(&am, &long, &DecoderConfig::default(), &mut scratch);
        let cfg = DecoderConfig::default();
        for n in [1usize, 7, 23] {
            let f = wavy_feats(n);
            let fresh = decode(&am, &f, &cfg);
            let reused = decode_with_scratch(&am, &f, &cfg, &mut scratch);
            assert_eq!(fresh.segments, reused.segments);
            assert_eq!(
                fresh.viterbi_score.to_bits(),
                reused.viterbi_score.to_bits()
            );
        }
    }
}

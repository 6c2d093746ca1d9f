//! The [`SystemBundle`]: a full trained PPRVSM system in one artifact.
//!
//! A bundle holds, per subsystem, exactly the state [`lre_dba::Frontend`]
//! needs to score raw audio — decoder configuration, acoustic model,
//! supervector builder, TFLLR scaler — plus the subsystem's one-vs-rest
//! VSM, and one duration-matched LDA-MMI fusion backend per entry of
//! [`Duration::all`]. Everything is serialized through the `lre-artifact`
//! payload traits, so a bundle inherits the container's corruption
//! detection and the per-model bit-identity contracts: reloading a bundle
//! in a fresh process reproduces the saved experiment's fused scores to
//! the last bit (covered by `tests/serve_roundtrip.rs`).
//!
//! ## Layout (container version 6)
//!
//! Version 2 stored each subsystem as an independently sealed artifact
//! blob addressed by a `u64` **section offset table**, so a reader can map
//! one subsystem's bytes without decoding any other. Version 3 added the
//! SVM training configuration (so online adaptation retrains with exactly
//! the recipe the bundle was built with) and a [`Lineage`] section tying a
//! boosted bundle back to its parent. Versions 4 and 5 carried a header
//! flag and a per-subsystem decoder byte selecting an approximate scoring
//! arithmetic; there is one arithmetic, so version 6 drops the flag and its
//! `SUBS` v4 sections embed the v4 `DCFG` payload (four fields); an older
//! bundle is refused with a typed version error. The payload:
//!
//! ```text
//! seed (u64) · scale name (str) · N-gram order (u32)
//! svm config (inline "SVCF" payload)
//! lineage: generation (u64) · parent checksum (u32) ·
//!          selected utts (u32) · vote threshold (u8)
//! fusion count (u32) · fusion payloads (inline)
//! subsystem count n (u32) · offsets (u64 slice, n+1 entries)
//! section region: n concatenated sealed "SUBS" artifacts
//! ```
//!
//! The offset table and the per-section CRCs let a reader address one
//! subsystem without decoding the others; [`SystemBundle`], the one reader
//! here, decodes all of them (every request touches every subsystem) and
//! holds the table to the size of the section region.

use lre_artifact::{ArtifactError, ArtifactRead, ArtifactReader, ArtifactWrite, ArtifactWriter};
use lre_backend::LdaMmiFusion;
use lre_corpus::Duration;
use lre_dba::{fuse_duration, standard_subsystems, Experiment};
use lre_eval::ScoreMatrix;
use lre_lattice::DecoderConfig;
use lre_svm::{OneVsRest, SvmTrainConfig};
use lre_vsm::{SupervectorBuilder, TfllrScaler};

/// One trained front-end plus its VSM, ready to serialize.
pub struct SubsystemBundle {
    /// Index into [`standard_subsystems`]; the spec itself (phone set,
    /// model family, recognizer language) is static code, so only the
    /// index travels.
    pub spec_index: u8,
    pub decoder: DecoderConfig,
    pub am: lre_am::AcousticModel,
    pub builder: SupervectorBuilder,
    pub scaler: TfllrScaler,
    pub vsm: OneVsRest,
}

/// Provenance of an online-adapted (boosted) bundle: which bundle it was
/// boosted from and how the pseudo-labels that retrained it were chosen.
/// A freshly trained bundle carries [`Lineage::root`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Lineage {
    /// How many adaptation generations separate this bundle from its
    /// original offline training run (0 = trained offline).
    pub generation: u64,
    /// CRC-32 of the sealed parent bundle (0 for a root bundle). This is
    /// what guarded rollback restores, bit-identically.
    pub parent_checksum: u32,
    /// Pseudo-labeled utterances selected into `Tr_DBA` for this
    /// generation's retrain (0 for a root bundle).
    pub selected_utts: u32,
    /// Vote threshold `V` (Eq. 13) used for the selection (0 for a root
    /// bundle).
    pub v_threshold: u8,
}

impl Lineage {
    /// The lineage of a bundle trained offline, not boosted from anything.
    pub fn root() -> Lineage {
        Lineage {
            generation: 0,
            parent_checksum: 0,
            selected_utts: 0,
            v_threshold: 0,
        }
    }
}

/// A complete scoring system: all subsystems plus per-duration fusion.
pub struct SystemBundle {
    /// Seed of the experiment the bundle was trained from (provenance).
    pub seed: u64,
    /// Corpus scale name of the training experiment (provenance).
    pub scale_name: String,
    /// Supervector N-gram order (must agree with every builder).
    pub max_order: u32,
    /// SVM training recipe the VSMs were trained with; online adaptation
    /// retrains with exactly this configuration so an offline rerun over
    /// the same selection reproduces the boosted scores bit-identically.
    pub svm: SvmTrainConfig,
    /// Adaptation provenance ([`Lineage::root`] for offline bundles).
    pub lineage: Lineage,
    pub subsystems: Vec<SubsystemBundle>,
    /// Fusion backends indexed like [`Duration::all`].
    pub fusions: Vec<LdaMmiFusion>,
}

impl SystemBundle {
    /// Package a fully built experiment into a bundle, training one
    /// duration-matched fusion backend per test duration (uniform Eq. 15
    /// weights — the baseline configuration).
    ///
    /// Consumes the experiment: the acoustic models and scalers move into
    /// the bundle rather than being retrained or cloned.
    ///
    /// # Panics
    ///
    /// If the experiment was restored headless from the supervector cache
    /// (no trained acoustic models or scalers to package).
    pub fn from_experiment(exp: Experiment) -> SystemBundle {
        let fusions: Vec<LdaMmiFusion> = Duration::all()
            .iter()
            .map(|&d| {
                let di = Experiment::duration_index(d);
                let test: Vec<ScoreMatrix> = exp
                    .baseline_test_scores
                    .iter()
                    .map(|per| per[di].clone())
                    .collect();
                fuse_duration(&exp, &exp.baseline_dev_scores, &test, d, None).fusion
            })
            .collect();
        let Experiment {
            cfg,
            frontends,
            baseline_vsms,
            ..
        } = exp;
        let subsystems = frontends
            .into_iter()
            .zip(baseline_vsms)
            .enumerate()
            .map(|(q, (fe, vsm))| SubsystemBundle {
                spec_index: q as u8,
                decoder: fe.decoder,
                am: fe.am,
                builder: fe.builder,
                scaler: fe
                    .scaler
                    .expect("cache-restored (headless) experiments cannot be bundled"),
                vsm,
            })
            .collect();
        SystemBundle {
            seed: cfg.seed,
            scale_name: cfg.scale.name().to_string(),
            max_order: cfg.max_order as u32,
            svm: cfg.svm,
            lineage: Lineage::root(),
            subsystems,
            fusions,
        }
    }
}

impl ArtifactWrite for SubsystemBundle {
    const KIND: [u8; 4] = *b"SUBS";
    // Follows the embedded decoder payload: v3 = DCFG v3 (no beam flag and
    // width), v4 = DCFG v4 (no scoring-mode byte).
    const VERSION: u32 = 4;

    fn write_payload(&self, w: &mut ArtifactWriter) {
        w.put_u8(self.spec_index);
        // The spec name rides along so a bundle written against a reordered
        // subsystem table is rejected instead of silently mislabeled.
        w.put_str(standard_subsystems()[self.spec_index as usize].name);
        self.decoder.write_payload(w);
        self.am.write_payload(w);
        self.builder.write_payload(w);
        self.scaler.write_payload(w);
        self.vsm.write_payload(w);
    }
}

impl ArtifactRead for SubsystemBundle {
    fn read_payload(r: &mut ArtifactReader) -> Result<SubsystemBundle, ArtifactError> {
        let spec_index = r.get_u8()?;
        let name = r.get_str()?;
        let specs = standard_subsystems();
        let spec = specs
            .get(spec_index as usize)
            .ok_or(ArtifactError::Corrupt("subsystem index out of range"))?;
        if spec.name != name {
            return Err(ArtifactError::Corrupt("subsystem name mismatch"));
        }
        let decoder = DecoderConfig::read_payload(r)?;
        let am = lre_am::AcousticModel::read_payload(r)?;
        let builder = SupervectorBuilder::read_payload(r)?;
        let scaler = TfllrScaler::read_payload(r)?;
        let vsm = OneVsRest::read_payload(r)?;
        if scaler.dim() != builder.dim() {
            return Err(ArtifactError::Corrupt("scaler dimension disagrees"));
        }
        Ok(SubsystemBundle {
            spec_index,
            decoder,
            am,
            builder,
            scaler,
            vsm,
        })
    }
}

fn write_lineage(w: &mut ArtifactWriter, l: &Lineage) {
    w.put_u64(l.generation);
    w.put_u32(l.parent_checksum);
    w.put_u32(l.selected_utts);
    w.put_u8(l.v_threshold);
}

fn read_lineage(r: &mut ArtifactReader) -> Result<Lineage, ArtifactError> {
    Ok(Lineage {
        generation: r.get_u64()?,
        parent_checksum: r.get_u32()?,
        selected_utts: r.get_u32()?,
        v_threshold: r.get_u8()?,
    })
}

impl ArtifactWrite for SystemBundle {
    const KIND: [u8; 4] = *b"BNDL";
    // v5: SUBS v3 sections; v6: SUBS v4 sections, and the scoring-mode
    // opt-in byte after the lineage is gone.
    const VERSION: u32 = 6;

    fn write_payload(&self, w: &mut ArtifactWriter) {
        w.put_u64(self.seed);
        w.put_str(&self.scale_name);
        w.put_u32(self.max_order);
        self.svm.write_payload(w);
        write_lineage(w, &self.lineage);
        w.put_u32(self.fusions.len() as u32);
        for f in &self.fusions {
            f.write_payload(w);
        }
        // Each subsystem is sealed independently (own CRC) and addressed by
        // the offset table, so a reader can address one section at a time.
        let sections: Vec<Vec<u8>> = self
            .subsystems
            .iter()
            .map(|s| s.to_artifact_bytes())
            .collect();
        let mut offsets = Vec::with_capacity(sections.len() + 1);
        let mut acc = 0u64;
        offsets.push(0);
        for s in &sections {
            acc += s.len() as u64;
            offsets.push(acc);
        }
        w.put_u32(self.subsystems.len() as u32);
        w.put_u64_slice(&offsets);
        for s in &sections {
            w.put_bytes(s);
        }
    }
}

impl ArtifactRead for SystemBundle {
    fn read_payload(r: &mut ArtifactReader) -> Result<SystemBundle, ArtifactError> {
        let seed = r.get_u64()?;
        let scale_name = r.get_str()?;
        let max_order = r.get_u32()?;
        let svm = SvmTrainConfig::read_payload(r)?;
        let lineage = read_lineage(r)?;
        let nf = r.get_u32()? as usize;
        let fusions: Vec<LdaMmiFusion> = (0..nf)
            .map(|_| LdaMmiFusion::read_payload(r))
            .collect::<Result<_, _>>()?;
        let ns = r.get_u32()? as usize;
        let offsets = r.get_u64_slice()?;
        if ns == 0 {
            return Err(ArtifactError::Corrupt("bundle has no subsystems"));
        }
        if fusions.len() != Duration::all().len() {
            return Err(ArtifactError::Corrupt("bundle fusion count mismatch"));
        }
        if fusions.iter().any(|f| f.num_subsystems() != ns) {
            return Err(ArtifactError::Corrupt("fusion subsystem count disagrees"));
        }
        if offsets.len() != ns + 1 || offsets[0] != 0 {
            return Err(ArtifactError::Corrupt("bundle offset table malformed"));
        }
        if offsets.windows(2).any(|w| w[0] > w[1]) {
            return Err(ArtifactError::Corrupt("bundle offset table not monotone"));
        }
        if offsets[ns] != r.remaining() as u64 {
            return Err(ArtifactError::Corrupt(
                "bundle offset table disagrees with section region size",
            ));
        }
        let subsystems: Vec<SubsystemBundle> = offsets
            .windows(2)
            .map(|w| SubsystemBundle::from_artifact_bytes(r.get_bytes((w[1] - w[0]) as usize)?))
            .collect::<Result<_, _>>()?;
        if subsystems
            .iter()
            .any(|s| s.builder.max_order() != max_order as usize)
        {
            return Err(ArtifactError::Corrupt("bundle N-gram order disagrees"));
        }
        Ok(SystemBundle {
            seed,
            scale_name,
            max_order,
            svm,
            lineage,
            subsystems,
            fusions,
        })
    }
}

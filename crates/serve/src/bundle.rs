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
//! subsystem without decoding the others. [`SystemBundle`] decodes all of
//! them (every request touches every subsystem) and holds the table to
//! the size of the section region. [`BundleParent`] is what an adaptation
//! round reads of its parent's file: the VSMs and what retraining and the
//! guard need, one section at a time; it writes the candidate by copying
//! the parent's sections with their VSMs swapped
//! ([`BundleParent::splice`]).

use lre_artifact::{
    check_stream, open, ArtifactError, ArtifactRead, ArtifactReader, ArtifactStream, ArtifactWrite,
    ArtifactWriter, SealWriter, SealedFile, SealedId, HEADER_LEN, TRAILER_LEN,
};
use lre_backend::LdaMmiFusion;
use lre_corpus::Duration;
use lre_dba::{fuse_duration, standard_subsystems, Experiment};
use lre_eval::ScoreMatrix;
use lre_lattice::DecoderConfig;
use lre_svm::{OneVsRest, SvmTrainConfig};
use lre_vsm::{SupervectorBuilder, TfllrScaler};
use std::fs::File;
use std::io::{BufWriter, Read, Seek, Write};
use std::path::Path;

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
    /// The sealed parent bundle's identity,
    /// [`lre_artifact::bundle_checksum`] (its CRC-32 trailer); 0 for a
    /// root bundle. This is what guarded rollback restores,
    /// bit-identically.
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

    /// Decode a sealed bundle from `src` without holding its bytes: a
    /// first pass checks the whole container ([`check_stream`]: damage
    /// fails here, before anything is decoded, with the error
    /// [`ArtifactRead::from_artifact_bytes`] gives the same bytes), then
    /// `src` is rewound and decoded section by section through one reused
    /// buffer, its CRC checked again, and its identity required to be the
    /// first pass's, so bytes that changed between the passes are refused.
    /// Returns the bundle and that identity (its `crc` is
    /// [`lre_artifact::bundle_checksum`] of the bytes).
    pub fn decode_stream<R: Read + Seek>(
        mut src: R,
    ) -> Result<(SystemBundle, SealedId), ArtifactError> {
        let id = check_stream(&mut src, Self::KIND, Self::VERSION)?;
        src.rewind()?;
        let mut s = ArtifactStream::open(&mut src, Self::KIND, Self::VERSION)?;
        let prefix = s.fields(Prefix::read)?;
        let subsystems: Vec<SubsystemBundle> = prefix
            .section_lens(s.remaining())?
            .into_iter()
            .map(|n| s.section(n))
            .collect::<Result<_, _>>()?;
        let bundle = prefix.bundle(subsystems)?;
        if s.finish()? != id {
            return Err(ArtifactError::ChecksumMismatch);
        }
        Ok((bundle, id))
    }

    /// [`SystemBundle::decode_stream`] the file at `path`: what `lre-serve`
    /// and `lre-adaptd` load at start-up.
    pub fn load_streamed(path: &Path) -> Result<(SystemBundle, SealedId), ArtifactError> {
        SystemBundle::decode_stream(File::open(path)?)
    }

    /// The lineage and the subsystem count of the bundle in `file`, read
    /// from the head of its payload alone (nothing of it is checked past
    /// the offset table: a caller proved the file's identity already, and
    /// later reads check it again).
    pub fn read_lineage(file: &SealedFile) -> Result<(Lineage, usize), ArtifactError> {
        let mut s = ArtifactStream::open(file.open()?, Self::KIND, Self::VERSION)?;
        let prefix = s.fields(Prefix::read)?;
        Ok((prefix.lineage, prefix.offsets.len() - 1))
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

/// A `SUBS` payload up to its VSM, which comes last.
struct SubsystemHead {
    spec_index: u8,
    decoder: DecoderConfig,
    am: lre_am::AcousticModel,
    builder: SupervectorBuilder,
    scaler: TfllrScaler,
}

impl SubsystemHead {
    fn read(r: &mut ArtifactReader) -> Result<SubsystemHead, ArtifactError> {
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
        if scaler.dim() != builder.dim() {
            return Err(ArtifactError::Corrupt("scaler dimension disagrees"));
        }
        Ok(SubsystemHead {
            spec_index,
            decoder,
            am,
            builder,
            scaler,
        })
    }
}

impl ArtifactRead for SubsystemBundle {
    fn read_payload(r: &mut ArtifactReader) -> Result<SubsystemBundle, ArtifactError> {
        let head = SubsystemHead::read(r)?;
        let vsm = OneVsRest::read_payload(r)?;
        Ok(SubsystemBundle {
            spec_index: head.spec_index,
            decoder: head.decoder,
            am: head.am,
            builder: head.builder,
            scaler: head.scaler,
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
        // Each subsystem is sealed independently (own CRC) and addressed by
        // the offset table, so a reader can address one section at a time.
        let sections: Vec<Vec<u8>> = self
            .subsystems
            .iter()
            .map(|s| s.to_artifact_bytes())
            .collect();
        PrefixOut {
            seed: self.seed,
            scale_name: &self.scale_name,
            max_order: self.max_order,
            svm: &self.svm,
            lineage: self.lineage,
            fusions: &self.fusions,
            offsets: &offsets(sections.iter().map(|s| s.len() as u64)),
        }
        .write(w);
        for s in &sections {
            w.put_bytes(s);
        }
    }
}

/// The offset table of sections of `lens` bytes: 0, then each end.
fn offsets(lens: impl Iterator<Item = u64>) -> Vec<u64> {
    let mut acc = 0u64;
    std::iter::once(0)
        .chain(lens.map(|n| {
            acc += n;
            acc
        }))
        .collect()
}

/// A bundle payload's prefix as written: everything before the section
/// region, the one writer of that layout.
struct PrefixOut<'a> {
    seed: u64,
    scale_name: &'a str,
    max_order: u32,
    svm: &'a SvmTrainConfig,
    lineage: Lineage,
    fusions: &'a [LdaMmiFusion],
    offsets: &'a [u64],
}

impl PrefixOut<'_> {
    fn write(&self, w: &mut ArtifactWriter) {
        w.put_u64(self.seed);
        w.put_str(self.scale_name);
        w.put_u32(self.max_order);
        self.svm.write_payload(w);
        write_lineage(w, &self.lineage);
        w.put_u32(self.fusions.len() as u32);
        for f in self.fusions {
            f.write_payload(w);
        }
        w.put_u32(self.offsets.len() as u32 - 1);
        w.put_u64_slice(self.offsets);
    }
}

/// Everything of a bundle payload before its section region, checked
/// against itself: what the slice decode and the streamed decode share.
struct Prefix {
    seed: u64,
    scale_name: String,
    max_order: u32,
    svm: SvmTrainConfig,
    lineage: Lineage,
    fusions: Vec<LdaMmiFusion>,
    /// The section offset table, `subsystems + 1` monotone entries from 0.
    offsets: Vec<u64>,
}

impl Prefix {
    /// Read the prefix up to and including the offset table. It reads
    /// nothing by `r.remaining()`, so [`ArtifactStream::fields`] may run it.
    fn read(r: &mut ArtifactReader) -> Result<Prefix, ArtifactError> {
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
        Ok(Prefix {
            seed,
            scale_name,
            max_order,
            svm,
            lineage,
            fusions,
            offsets,
        })
    }

    /// The section lengths, once the table is held to the `region` bytes
    /// that follow it.
    fn section_lens(&self, region: u64) -> Result<Vec<usize>, ArtifactError> {
        if self.offsets.last() != Some(&region) {
            return Err(ArtifactError::Corrupt(
                "bundle offset table disagrees with section region size",
            ));
        }
        Ok(self
            .offsets
            .windows(2)
            .map(|w| (w[1] - w[0]) as usize)
            .collect())
    }

    /// The bundle, once every section is decoded.
    fn bundle(self, subsystems: Vec<SubsystemBundle>) -> Result<SystemBundle, ArtifactError> {
        if subsystems
            .iter()
            .any(|s| s.builder.max_order() != self.max_order as usize)
        {
            return Err(ArtifactError::Corrupt("bundle N-gram order disagrees"));
        }
        Ok(SystemBundle {
            seed: self.seed,
            scale_name: self.scale_name,
            max_order: self.max_order,
            svm: self.svm,
            lineage: self.lineage,
            subsystems,
            fusions: self.fusions,
        })
    }
}

impl Prefix {
    /// This prefix as written with `lineage` and `offsets` in place of its
    /// own.
    fn out<'a>(&'a self, lineage: Lineage, offsets: &'a [u64]) -> PrefixOut<'a> {
        PrefixOut {
            seed: self.seed,
            scale_name: &self.scale_name,
            max_order: self.max_order,
            svm: &self.svm,
            lineage,
            fusions: &self.fusions,
            offsets,
        }
    }
}

/// What an adaptation round reads of its parent bundle: the SVM recipe,
/// the lineage, the fusions and, per subsystem, the VSM and the
/// supervector dimension. It is read from the parent's file one section
/// at a time (each section's acoustic model, decoder and scaler are
/// decoded, checked and dropped), and it records where each section's
/// VSM starts, so that [`BundleParent::splice`] can write the candidate
/// from the file.
pub struct BundleParent {
    file: SealedFile,
    prefix: Prefix,
    subsystems: Vec<ParentSubsystem>,
}

struct ParentSubsystem {
    dim: usize,
    vsm: OneVsRest,
    /// Where the VSM starts in the section's payload: everything before
    /// it is copied into the candidate as it is.
    vsm_at: usize,
}

impl BundleParent {
    /// Read the bundle in `file`. A file that is gone, damaged, or not the
    /// container `file` names is an error.
    pub fn read(file: SealedFile) -> Result<BundleParent, ArtifactError> {
        let (kind, version) = (SystemBundle::KIND, SystemBundle::VERSION);
        let mut s = ArtifactStream::open(file.open()?, kind, version)?;
        let prefix = s.fields(Prefix::read)?;
        let subsystems = prefix
            .section_lens(s.remaining())?
            .into_iter()
            .map(|n| {
                s.raw(n, |sealed| {
                    let (kind, version) = (SubsystemBundle::KIND, SubsystemBundle::VERSION);
                    let mut r = ArtifactReader::new(open(sealed, kind, version)?);
                    let head = SubsystemHead::read(&mut r)?;
                    if head.builder.max_order() != prefix.max_order as usize {
                        return Err(ArtifactError::Corrupt("bundle N-gram order disagrees"));
                    }
                    let vsm_at = r.position();
                    let vsm = OneVsRest::read_payload(&mut r)?;
                    if r.remaining() != 0 {
                        return Err(ArtifactError::TrailingBytes);
                    }
                    Ok(ParentSubsystem {
                        dim: head.builder.dim(),
                        vsm,
                        vsm_at,
                    })
                })
            })
            .collect::<Result<Vec<_>, _>>()?;
        file.check(s.finish()?)?;
        Ok(BundleParent {
            file,
            prefix,
            subsystems,
        })
    }

    /// The file this was read from.
    pub fn file(&self) -> &SealedFile {
        &self.file
    }

    /// The SVM recipe the VSMs were trained with.
    pub fn svm(&self) -> &SvmTrainConfig {
        &self.prefix.svm
    }

    pub fn lineage(&self) -> Lineage {
        self.prefix.lineage
    }

    /// Fusion backends indexed like [`Duration::all`].
    pub fn fusions(&self) -> &[LdaMmiFusion] {
        &self.prefix.fusions
    }

    /// Subsystem `q`'s supervector dimension.
    pub fn dim(&self, q: usize) -> usize {
        self.subsystems[q].dim
    }

    /// Every subsystem's VSM, in subsystem order.
    pub fn vsms(&self) -> Vec<&OneVsRest> {
        self.subsystems.iter().map(|s| &s.vsm).collect()
    }

    /// Write a new file at `dst`: this bundle with subsystem `q`'s VSM
    /// replaced by `vsms[q]` and its lineage by `lineage`, copied from the
    /// parent's file one section at a time. The bytes are those
    /// `to_artifact_bytes` writes for the decoded parent so changed. The
    /// parent file must still be the container it was read as. Returns the
    /// new file's identity.
    pub fn splice(
        &self,
        vsms: &[OneVsRest],
        lineage: Lineage,
        dst: &Path,
    ) -> Result<SealedId, ArtifactError> {
        if vsms.len() != self.subsystems.len() {
            return Err(ArtifactError::Corrupt("candidate subsystem count"));
        }
        let payloads: Vec<Vec<u8>> = vsms
            .iter()
            .map(|vsm| {
                let mut w = ArtifactWriter::new();
                vsm.write_payload(&mut w);
                w.into_bytes()
            })
            .collect();
        let lens = (self.subsystems.iter().zip(&payloads))
            .map(|(sub, vsm)| (HEADER_LEN + sub.vsm_at + vsm.len() + TRAILER_LEN) as u64);
        let offsets = offsets(lens);
        let mut head = ArtifactWriter::new();
        self.prefix.out(lineage, &offsets).write(&mut head);
        let head = head.into_bytes();

        let (kind, version) = (SystemBundle::KIND, SystemBundle::VERSION);
        let mut src = ArtifactStream::open(self.file.open()?, kind, version)?;
        let prefix = src.fields(Prefix::read)?;
        let payload_len = head.len() as u64 + offsets[offsets.len() - 1];
        let dst = BufWriter::new(File::create(dst)?);
        let mut out = SealWriter::begin(dst, kind, version, payload_len)?;
        out.write_all(&head)?;
        let sections = prefix.section_lens(src.remaining())?;
        for ((n, sub), vsm) in sections.into_iter().zip(&self.subsystems).zip(&payloads) {
            src.raw(n, |sealed| {
                let (kind, version) = (SubsystemBundle::KIND, SubsystemBundle::VERSION);
                let kept = open(sealed, kind, version)?
                    .get(..sub.vsm_at)
                    .ok_or(ArtifactError::Truncated)?;
                let len = (kept.len() + vsm.len()) as u64;
                let mut section = SealWriter::begin(&mut out, kind, version, len)?;
                section.write_all(kept)?;
                section.write_all(vsm)?;
                section.finish().map(drop)
            })?;
        }
        self.file.check(src.finish()?)?;
        let (dst, id) = out.finish()?;
        dst.into_inner().map_err(|e| e.into_error())?.sync_all()?;
        Ok(id)
    }
}

impl ArtifactRead for SystemBundle {
    fn read_payload(r: &mut ArtifactReader) -> Result<SystemBundle, ArtifactError> {
        let prefix = Prefix::read(r)?;
        let subsystems: Vec<SubsystemBundle> = prefix
            .section_lens(r.remaining() as u64)?
            .into_iter()
            .map(|n| SubsystemBundle::from_artifact_bytes(r.get_bytes(n)?))
            .collect::<Result<_, _>>()?;
        prefix.bundle(subsystems)
    }
}

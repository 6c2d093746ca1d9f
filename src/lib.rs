//! Workspace umbrella crate: re-exports the whole LRE-DBA stack so the
//! `examples/` and `tests/` at the repository root can use one import path.

pub use lre_am as am;
pub use lre_backend as backend;
pub use lre_corpus as corpus;
pub use lre_dba as dba;
pub use lre_dsp as dsp;
pub use lre_eval as eval;
pub use lre_lattice as lattice;
pub use lre_linalg as linalg;
pub use lre_phone as phone;
pub use lre_svm as svm;
pub use lre_vsm as vsm;

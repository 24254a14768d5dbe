//! # prestage-bpred
//!
//! Branch prediction substrate for the decoupled front-end.
//!
//! The paper's front-end (Table 2) uses a **stream predictor** (Ramirez,
//! Santana, Larriba-Pey, Valero — "Fetching instruction streams", MICRO'02)
//! with 1K + 6K entries and an 8-entry return address stack.  A *stream* is
//! a maximal run of sequential instructions ending at a taken control
//! transfer; one prediction names the whole next fetch block, which is what
//! lets the predictor run ahead of the I-cache and feed the FTQ/CLTQ.
//!
//! Module map:
//! * [`stream`] — stream descriptors, the segmentation invariants, and the
//!   maximum fetch-block length shared with the front-end.
//! * [`ras`] — the 8-entry return address stack, a `Copy` value.
//! * [`predictor`] — the cascaded 1K (PC-indexed) + 6K (path-history
//!   indexed) stream predictor, with speculative history and repair.
//!
//! Both predictors keep one saved copy of their speculative state (path
//! history and RAS, never the tables): `checkpoint()` overwrites it before
//! an on-path prediction and `restore()` reinstates it on a queue-full
//! retry or a misprediction redirect.
//! * [`gshare`] — a classic gshare + BTB predictor wrapped to produce
//!   streams by walking the basic-block dictionary; used by the ablation
//!   benches.

pub mod gshare;
pub mod predictor;
pub mod ras;
pub mod stream;

pub use gshare::GsharePredictor;
pub use predictor::{PredStats, StreamPredictor, StreamPredictorConfig, TrainToken};
pub use ras::{ReturnAddressStack, RAS_ENTRIES};
pub use stream::{StreamDesc, StreamEnd, StreamPrediction, MAX_STREAM_INSTS};

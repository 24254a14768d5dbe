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
//! * [`ras`] — checkpointable return address stack.
//! * [`predictor`] — the cascaded 1K (PC-indexed) + 6K (path-history
//!   indexed) stream predictor, with speculative history and repair.
//! * [`gshare`] — a classic gshare + BTB predictor wrapped to produce
//!   streams by walking the basic-block dictionary; used by the ablation
//!   benches.

pub mod gshare;
pub mod predictor;
pub mod ras;
pub mod stream;

pub use gshare::{GshareCheckpoint, GsharePredictor};
pub use predictor::{
    PredCheckpoint, PredStats, StreamPredictor, StreamPredictorConfig, TrainToken,
};
pub use ras::{RasSnapshot, ReturnAddressStack};
pub use stream::{StreamDesc, StreamEnd, StreamPrediction, MAX_STREAM_INSTS};

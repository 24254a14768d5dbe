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
//! * [`gshare`] — a gshare direction predictor that builds streams by
//!   walking the basic-block dictionary; the ablation baseline.
//!
//! Both predictors implement [`FetchPredictor`], the one interface the
//! engine drives.  Each keeps one saved copy of its speculative state
//! (path history and RAS, never the tables): `checkpoint()` overwrites it
//! before an on-path prediction and `restore()` reinstates it on a
//! queue-full retry or a misprediction redirect.

pub mod gshare;
pub mod predictor;
pub mod ras;
pub mod stream;

pub use gshare::GsharePredictor;
pub use predictor::{PredStats, StreamPredictor, TrainToken, STREAM_L1_ENTRIES, STREAM_L2_ENTRIES};
pub use ras::{ReturnAddressStack, RAS_ENTRIES};
pub use stream::{StreamDesc, StreamEnd, StreamPrediction, MAX_STREAM_INSTS};

use prestage_isa::{Addr, Program};

/// A fetch-block predictor: what the engine asks for one stream at a time.
pub trait FetchPredictor {
    /// Predict the stream starting at `start`, advancing speculative state
    /// (history, RAS).  The wrong path uses this: nothing is trained.
    fn predict(&mut self, start: Addr, prog: &Program) -> StreamPrediction;

    /// Predict at `actual.start`, then train toward `actual`, counting the
    /// prediction correct when it has the same flow
    /// ([`StreamDesc::same_flow`]).  The correct path uses this.
    fn predict_and_train(&mut self, actual: &StreamDesc, prog: &Program) -> StreamPrediction;

    /// Save speculative state over the previous saved copy.
    fn checkpoint(&mut self);

    /// Reinstate the last [`checkpoint`](Self::checkpoint).
    fn restore(&mut self);

    /// Accuracy and table-usage counters.
    fn stats(&self) -> &PredStats;

    /// Zero the counters (end of warm-up); tables are kept.
    fn reset_stats(&mut self);
}

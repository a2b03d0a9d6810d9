//! # openmb-core
//!
//! The OpenMB MB controller (§5 of the paper) and its embeddings.
//!
//! * [`controller::ControllerCore`] — the controller state machine
//!   both embeddings drive: northbound operations (`readConfig`,
//!   `writeConfig`, `stats`, `moveInternal`, `cloneSupport`,
//!   `mergeInternal`, chain moves), the Figure 5 choreography, per-key
//!   reprocess-event buffering, quiescence-driven deletes, and the
//!   transfer/delete ledgers.
//! * [`chain`] — chain-wide atomic moves over ordered per-hop transfers.
//! * [`app`] — the control-application trait and the [`app::Api`] that
//!   unifies MB-state control with SDN routing updates and timers.
//! * [`nodes`] — discrete-event-simulation embeddings: [`nodes::MbNode`]
//!   (a middlebox with its processing-cost queue), [`nodes::ControllerNode`]
//!   (controller + SDN routing + control app), [`nodes::Host`].
//! * [`tcp`] — the same `ControllerCore`, behind one lock, served over
//!   real loopback TCP with the binary wire protocol, proving the
//!   protocol is transport-independent.

pub mod app;
pub mod chain;
pub mod controller;
pub mod nodes;
pub mod placement;
pub mod tcp;

pub use app::{Api, ApiCtx, ControlApp, NullApp};
pub use chain::{ChainHop, ChainSpec, ChainStatus, CHAIN_OP_BASE};
pub use controller::{Action, Completion, ControllerConfig, ControllerCore};
pub use nodes::{ControllerCosts, ControllerNode, Host, MbNode};
pub use placement::{select_destination, PlacementCandidate};

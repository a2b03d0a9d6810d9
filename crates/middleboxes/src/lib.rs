//! # openmb-middleboxes
//!
//! OpenMB-enabled middlebox implementations (§7 of the paper modified
//! Bro, PRADS, and SmartRE; we implement functional Rust stand-ins for
//! each, plus the additional MB types the motivating scenarios of §2
//! reference):
//!
//! * [`monitor::Monitor`] — PRADS-like asset monitor: per-flow + shared
//!   **reporting** state, additive merge.
//! * [`ips::Ips`] — Bro-like intrusion detection: deep per-flow
//!   **supporting** state (TCP connection machine, HTTP analyzer),
//!   shared scan-detector table, conn.log/http.log output.
//! * [`re`] — SmartRE-like redundancy-elimination encoder/decoder:
//!   shared **supporting** packet cache + fingerprint table that must
//!   stay byte-synchronized between encoder and decoder.
//! * [`nat::Nat`] — address/port translator: critical vs non-critical
//!   state split, introspection events (failure recovery, §2 R6).
//! * [`lb::LoadBalancer`] — Balance-like: per-source-IP granularity
//!   (exercises the §4.1.2 fine-granularity error path).
//! * [`proxy::Proxy`] — Squid-like caching proxy: the §4.1.2 hit-count
//!   shared-cache merge example, implemented verbatim.
//! * [`firewall::Firewall`] — configuration-heavy stateful firewall.
//! * [`dummy::DummyMb`] — trace-replay MB for the §8.3 controller
//!   scalability experiments.

/// Most bytes of an unterminated HTTP request line an MB buffers per
/// flow (the IPS's HTTP analyzer, the proxy's request parser). Past it
/// the line is dropped, so a flow that never ends a line cannot grow its
/// state or its per-packet scan cost.
pub(crate) const HTTP_LINE_CAP: usize = 4096;

pub mod dummy;
pub mod firewall;
pub mod ips;
pub mod lb;
pub mod monitor;
pub mod nat;
pub mod proxy;
pub mod re;

pub use dummy::DummyMb;
pub use firewall::Firewall;
pub use ips::Ips;
pub use lb::LoadBalancer;
pub use monitor::Monitor;
pub use nat::Nat;
pub use proxy::Proxy;
pub use re::{ReDecoder, ReEncoder};

//! The RDDR proxies (§IV-B, Figure 2 of the paper).
//!
//! "Architecturally, RDDR can be visualized as a set of proxies which sit on
//! either side of the N instances of the protected microservice. Both
//! proxies operate at the transport/socket layer."
//!
//! * [`IncomingProxy`] — "handles request traffic sent to the protected
//!   microservices": replicates each client request to all N instances,
//!   diffs their responses through an [`rddr_core::NVersionEngine`], and
//!   either forwards the unanimous answer or severs the connection.
//! * [`OutgoingProxy`] — "a dual of the Incoming Request Proxy": accepts the
//!   N instances' connections to a downstream microservice, verifies their
//!   requests agree, forwards a single merged copy to the real backend, and
//!   replicates the backend's answer to every instance. One outgoing proxy
//!   is deployed per distinct downstream service.
//!
//! Both proxies run their sessions as explicit state machines on a
//! readiness-driven reactor (a fixed pool of O(cores) worker threads per
//! proxy; see `reactor`): only the accept loop keeps a dedicated thread, so
//! thread count stays flat as concurrent sessions grow. They are
//! transport-agnostic: they run over the in-memory [`rddr_net::SimNet`] or
//! real TCP unchanged.
//!
//! The two proxies are one implementation seen from two sides (`session`).
//! Each session has an N side, which is the instances for the incoming
//! proxy and the members for the outgoing proxy. It also has a single
//! stream, which is the client or the backend. One proxy handle serves
//! both: it binds, runs the reactor pool and the accept loop, and stops.
//!
//! The reactor worker is the only code that touches a session's streams
//! and its clock: it owns each session's stream table, drains every woken
//! stream in one loop, and hands the session its bytes and EOFs per slot;
//! the session writes, closes and arms its timer through the worker.
//! One session core runs the N side:
//! - fault, eject and quarantine;
//! - the bytes and EOFs the drain hands it;
//! - the deadline and straggler wait;
//! - the write to every live instance;
//! - the completion accounting.
//!
//! `incoming` and `outgoing` keep only their single stream's state and the
//! rules that differ by direction.
//!
//! [`NVersion`] is the one way to stand a protected service up on an
//! [`rddr_orchestra::Cluster`]: it starts the N variants as containers
//! `{name}-{i}`, gives them their addresses, and puts an [`IncomingProxy`]
//! at the service's entry address.
//!
//! # Examples
//!
//! Protecting a 2-version echo service whose instances the caller runs
//! itself:
//!
//! ```
//! use std::sync::Arc;
//! use rddr_core::EngineConfig;
//! use rddr_net::{Network, SimNet, ServiceAddr, Stream};
//! use rddr_proxy::{IncomingProxy, ProtocolFactory};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let net = SimNet::new();
//! // Two diverse "instances" that happen to agree.
//! for port in [9000, 9001] {
//!     let mut l = net.listen(&ServiceAddr::new("echo", port))?;
//!     std::thread::spawn(move || {
//!         while let Ok(mut conn) = l.accept() {
//!             std::thread::spawn(move || {
//!                 let mut buf = [0u8; 64];
//!                 while let Ok(n) = conn.read(&mut buf) {
//!                     if n == 0 { break; }
//!                     if conn.write_all(&buf[..n]).is_err() { break; }
//!                 }
//!             });
//!         }
//!     });
//! }
//! let protocol: ProtocolFactory =
//!     Arc::new(|| Box::new(rddr_core::protocol::LineProtocol::new()));
//! let proxy = IncomingProxy::start(
//!     Arc::new(net.clone()),
//!     &ServiceAddr::new("rddr", 80),
//!     vec![ServiceAddr::new("echo", 9000), ServiceAddr::new("echo", 9001)],
//!     EngineConfig::builder(2).build()?,
//!     protocol,
//! )?;
//! let mut client = net.dial(&ServiceAddr::new("rddr", 80))?;
//! client.write_all(b"ping\n")?;
//! let mut buf = [0u8; 5];
//! client.read_exact(&mut buf)?;
//! assert_eq!(&buf, b"ping\n");
//! drop(proxy);
//! # Ok(())
//! # }
//! ```

pub mod deploy;
mod incoming;
mod outgoing;
mod plumbing;
mod reactor;
mod session;

pub use deploy::{NVersion, NVersionedService};
pub use incoming::IncomingProxy;
pub use outgoing::OutgoingProxy;
pub use plumbing::{protocol_factory, ProtocolFactory, ProxyError, ProxyTelemetry, StatsSnapshot};

/// Crate-wide result alias.
pub type Result<T> = std::result::Result<T, ProxyError>;

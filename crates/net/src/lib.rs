//! # dra-net
//!
//! The network substrate under the router simulators:
//!
//! * [`addr`] — IPv4 addresses and prefixes with the arithmetic the
//!   FIBs need.
//! * [`fib`] — longest-prefix-match forwarding tables behind one
//!   trait: the compiled DIR-24-8 table plus the linear reference it
//!   is tested against.
//!   The LFE (local forwarding engine) of every linecard holds one, and
//!   DRA's lookup-offload path (REQ_L/REP_L) performs the same lookup
//!   on a remote linecard.
//! * [`packet`] — simulation-level packets: sizes, protocol tags, and
//!   timestamps rather than byte buffers.
//! * [`protocol`] — L2 protocol engines (Ethernet, POS, ATM). These
//!   model the PDLU of the paper: everything protocol-dependent
//!   (framing overhead, encap/decap work) lives behind the
//!   [`protocol::ProtocolEngine`] trait.
//! * [`sar`] — segmentation and reassembly into fixed-size cells for
//!   the crossbar fabric (ATM-like 48-byte payloads).
//! * [`traffic`] — open-loop traffic generators: Poisson with a
//!   trimodal packet-size mix, CBR, bursty on-off, and synthetic trace
//!   replay.
//! * [`trace`] — CSV serialization of traces, so an experiment's exact
//!   input can be pinned and replayed bit-identically.

#![warn(missing_docs)]

pub mod addr;
pub mod fib;
pub mod packet;
pub mod protocol;
pub mod sar;
pub mod trace;
pub mod traffic;

pub use addr::{Ipv4Addr, Ipv4Prefix};
pub use fib::{Dir248Fib, Fib};
pub use packet::{Packet, PacketId, PortId};
pub use protocol::{ProtocolEngine, ProtocolKind};

//! # dra-net
//!
//! The network substrate under the router simulators:
//!
//! * [`addr`] — IPv4 addresses and prefixes with the arithmetic the
//!   FIBs need.
//! * [`fib`] — longest-prefix-match forwarding tables behind one
//!   trait: the compiled DIR-24-8 table plus the linear reference it
//!   is tested against.
//!   A router chassis holds one that every linecard's LFE (local
//!   forwarding engine) reads, so DRA's lookup-offload path
//!   (REQ_L/REP_L) resolves against the same table on a remote
//!   linecard.
//! * [`packet`] — simulation-level packets: sizes, protocol tags, and
//!   timestamps rather than byte buffers.
//! * [`protocol`] — the L2 protocols (Ethernet, POS, ATM). They model
//!   the PDLU of the paper: everything protocol-dependent (framing
//!   overhead, encap/decap work) is a method of
//!   [`protocol::ProtocolKind`].
//! * [`sar`] — segmentation and reassembly into fixed-size cells for
//!   the crossbar fabric (ATM-like 48-byte payloads).
//! * [`traffic`] — the open-loop Poisson source with a trimodal
//!   packet-size mix that feeds every chassis ingress port.

#![warn(missing_docs)]

pub mod addr;
pub mod fib;
pub mod packet;
pub mod protocol;
pub mod sar;
pub mod traffic;

//! The EDB paper's target applications, written in IVM-16 assembly.
//!
//! These are the programs §5 of the paper debugs:
//!
//! * [`linked_list`] — the memory-corrupting intermittence bug of
//!   Figures 6/7 (and the keep-alive assert that catches it);
//! * [`fib`] — the Fibonacci list whose consistency check starves the
//!   main loop without energy guards (Figures 8/9);
//! * [`activity`] — the machine-learning activity-recognition app with
//!   three debug-output variants (Figure 10, Table 4, Figure 11);
//! * [`rfid_fw`] — the WISP RFID firmware that decodes reader commands
//!   in software and backscatters EPC replies (Figure 12).
//!
//! Each module exposes `source(...)` (the assembly text), `image(...)`
//! (assembled), the NV memory map as constants, and host-side oracles
//! for checking target state from tests and experiment harnesses.
//! [`oracle`] adds a T-Check-style exhaustive reboot-point explorer that
//! enumerates exactly which instruction boundaries are vulnerable.
//! [`registry`] is the one name → firmware table every frontend and the
//! session server look apps up in.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod activity;
pub mod fib;
pub mod linked_list;
pub mod oracle;
pub mod registry;
pub mod rfid_fw;

//! **EDB** — the Energy-interference-free Debugger of Colin, Harvey,
//! Lucia & Sample (ASPLOS 2016), reproduced end-to-end in simulation.
//!
//! Energy-harvesting devices execute *intermittently*: power fails tens
//! of times a second, erasing volatile state and restarting the program.
//! Conventional debuggers power the target and therefore *mask* every
//! intermittence bug; ad-hoc instrumentation (LEDs, UART logging)
//! *changes* the energy state and therefore the bug. EDB's thesis is that
//! a debugger for such devices must be **energy-interference-free**, and
//! this crate reproduces its whole design:
//!
//! * **Passive mode** — monitor the energy level (through a 12-bit
//!   [`adc`]), I/O buses, RFID traffic, and program events (code-marker
//!   watchpoints), all over high-impedance [`wiring`] whose worst-case
//!   leakage is under a microamp (Table 2).
//! * **Active mode** — manipulate the target's stored energy with a
//!   [`charge`] circuit: charge, discharge, tether, and *compensate* so
//!   debugging work is invisible to the application (Table 3).
//! * **Primitives** — intermittence-aware assertions with keep-alive,
//!   code/energy/combined breakpoints, energy guards, and
//!   energy-interference-free `printf` ([`debugger`], [`libedb`]).
//! * **Interfaces** — the `libEDB` target library and the debug
//!   [`console`] (Table 1).
//!
//! # Quickstart
//!
//! ```
//! use edb_core::{libedb, System};
//! use edb_device::DeviceConfig;
//! use edb_mcu::asm::assemble;
//!
//! // An instrumented program: one watchpoint per main-loop iteration.
//! let image = assemble(&libedb::wrap_program(r#"
//!     .org 0x4400
//! main:
//!     movi sp, 0x2400
//! loop:
//!     movi r0, 1
//!     out  CODE_MARKER, r0
//!     add  r1, 1
//!     jmp  loop
//!     .org 0xFFFE
//!     .word main
//! "#))?;
//!
//! // The bench: WISP-like target, RF-like harvester, EDB attached.
//! let mut sys = System::builder(DeviceConfig::wisp5())
//!     .harvester(edb_energy::TheveninSource::new(3.2, 1500.0))
//!     .build();
//! sys.flash(&image);
//! sys.run_for(edb_energy::SimTime::from_ms(200));
//!
//! // The program ran intermittently, and EDB watched it happen.
//! assert!(sys.device().reboots() > 0);
//! assert!(sys.edb().unwrap().log().with_tag("watchpoint").count() > 0);
//! # Ok::<(), edb_mcu::asm::AsmError>(())
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod adc;
pub mod baselines;
pub mod charge;
pub mod console;
pub mod debugger;
pub mod error;
pub mod events;
pub mod fleet;
pub mod libedb;
pub mod protocol;
pub mod replay;
pub mod session;
pub mod system;
pub mod wiring;

pub use adc::Adc;
pub use charge::{ChargeCircuit, ChargeMode, LevelController};
pub use console::{Console, ConsoleError};
pub use debugger::{
    DebugRequest, DebugResponse, Edb, EdbConfig, RequestId, SessionKind, SessionOutcome,
    SessionPoll,
};
pub use error::EdbError;
pub use events::{DebugEvent, EventLog, LoggedEvent};
pub use fleet::{FleetCellStats, FleetConfig, FleetEvent, FleetSim, TagStatus};
pub use protocol::{FrameError, HostCommand};
pub use replay::{
    Divergence, Firmware, FleetOp, FleetSpec, FleetTape, HarvesterSpec, SessionOp, SessionSpec,
    VerifyReport, WorldSpec,
};
pub use session::{DebugSession, SessionStatus};
pub use system::{System, SystemBuilder, SystemState};
pub use wiring::{ChannelFault, ChannelFaultConfig, ConnectionKind, LineStates, Wiring};

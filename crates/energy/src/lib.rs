//! Electrical substrate for the EDB intermittent-computing simulation.
//!
//! This crate models the analog side of an energy-harvesting device in the
//! style of the WISP5 target used by the EDB paper (Colin et al.,
//! ASPLOS 2016): a storage [`Capacitor`] charged by a [`Harvester`] with a
//! high source resistance, gated by a voltage [`Supervisor`] with turn-on
//! and brown-out thresholds, and optionally post-regulated by an
//! [`Ldo`].
//!
//! Everything is integrated explicitly in time with a caller-chosen step
//! (the device simulation uses one CPU clock cycle, 250 ns at 4 MHz), which
//! is what lets a power failure interrupt target software *between any two
//! instructions* — the essence of the intermittent execution model.
//!
//! # Example
//!
//! Charge a 47 µF capacitor from a Thévenin-equivalent RF harvester until
//! the supervisor signals turn-on:
//!
//! ```
//! use edb_energy::{Capacitor, TheveninSource, Harvester, Supervisor, PowerEdge, SimTime};
//!
//! let mut cap = Capacitor::new(47e-6);
//! let mut src = TheveninSource::new(3.2, 1500.0);
//! let mut sup = Supervisor::wisp5();
//! let dt = 250e-9;
//! let mut t = SimTime::ZERO;
//! loop {
//!     let i = src.current_into(cap.voltage(), t, dt);
//!     cap.apply_current(i, dt);
//!     t = t.advance_secs(dt);
//!     if sup.update(cap.voltage()) == Some(PowerEdge::TurnOn) {
//!         break;
//!     }
//! }
//! assert!(cap.voltage() >= 2.4);
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod analytic;
pub mod budget;
pub mod capacitor;
pub mod ekho;
pub mod harvester;
pub mod integrate;
pub mod regulator;
pub mod stats;
pub mod supervisor;
pub mod time;
pub mod trace;

pub use analytic::{exp_det, ln_det, rc_advance, rc_decay, rc_settle, rc_span_misses, rc_time_to};
pub use budget::{WISP5_CAPACITANCE, WISP5_V_OFF, WISP5_V_ON};
pub use capacitor::Capacitor;
pub use integrate::integrate_quantum;

pub use harvester::{
    ConstantCurrent, Fading, Harvester, PulsedSource, RfField, SolarHarvester, TheveninSource,
    TraceHarvester,
};
pub use regulator::Ldo;
pub use stats::{Cdf, Summary};
pub use supervisor::{KneeDetector, PowerEdge, Supervisor};
pub use time::SimTime;
pub use trace::{EventMark, Trace};

//! The intermittent target device of the EDB reproduction.
//!
//! This crate assembles the substrates — the [`edb_mcu`] processor, the
//! [`edb_energy`] electrical model — into a WISP5-like energy-harvesting
//! tag: a CPU fed from a 47 µF storage capacitor through a hysteretic
//! supervisor (turn-on 2.4 V, brown-out 1.8 V), with GPIO/LED, a
//! target-powered UART, a self-measurement ADC, an I²C accelerometer, an
//! RFID front-end, and the debug wiring that EDB attaches to.
//!
//! The core loop is [`Device::step`]: execute one instruction, integrate
//! its energy, let the supervisor decide whether power failed. Everything
//! the paper calls "intermittence" — reboots tens of times per second,
//! volatile state loss, FRAM persistence, bugs that vanish on continuous
//! power — emerges from that loop.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod accel;
pub mod device;
pub mod fleet;
pub mod peripherals;
pub mod ports;
pub mod rf_frontend;

pub use accel::{AccelSample, Accelerometer, Regime, SyntheticMotion};
pub use device::{
    Device, DeviceConfig, DeviceEvent, DeviceStep, Horizon, Peripherals, Span, VCross,
};
pub use fleet::{splitmix64, Fleet, TagMode, TagParams};
pub use peripherals::{DebugLink, Gpio, SelfAdc, Timer, Uart};
pub use rf_frontend::{Backscatter, RfFrontend};

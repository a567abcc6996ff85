//! Device models available to the circuit builder.

pub mod mosfet;

pub use mosfet::{
    evaluate, saturation_current, GateDrive, GateGain, MosEval, MosParams, MosPolarity, MosRegion, THERMAL_VOLTAGE,
};

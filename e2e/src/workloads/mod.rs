//! The four workloads. Each builds its inputs from the seed, sets the
//! system up, drives it, and checks what came back.

pub mod image_pipeline;
pub mod live_rw;
pub mod serve_scan;
pub mod tier_approx;
pub mod traced;

// Library code must degrade gracefully instead of panicking; unwrap and
// expect are allowed only under cfg(test).
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]
//! Profiling runtimes for the stride-prefetch reproduction: the LFU value
//! profiler (Calder et al., MICRO-30) specialized to address strides, the
//! `strideProf` routine in its plain / enhanced / sampled variants
//! (Figs. 6, 7 and 9 of the paper), edge-frequency profiles with the
//! Fig. 10 trip-count computation, and the integrated [`ProfilerRuntime`]
//! the VM invokes from instrumented code.
//!
//! # Example
//!
//! Discover the dominant stride of an address stream:
//!
//! ```
//! use stride_profiling::{StrideProfConfig, StrideProfData, StrideProfEngine};
//!
//! let config = StrideProfConfig::plain();
//! let mut engine = StrideProfEngine::new();
//! let mut data = StrideProfData::new(&config);
//! for i in 0..100u64 {
//!     engine.stride_prof(&config, &mut data, 0x1000 + i * 48);
//! }
//! assert_eq!(data.top_strides()[0], (48, 99));
//! ```

pub mod freq;
pub mod lfu;
pub mod profile;
pub mod refdist;
pub mod runtime;
pub mod stride_prof;
pub mod text;

pub use freq::{EdgeProfile, FreqSource};
pub use lfu::{Lfu, LfuConfig, LfuStats};
pub use profile::{LoadStrideProfile, StrideProfile};
pub use refdist::{RefDistSummary, ReferenceDistanceProfiler};
pub use runtime::{
    ProfilerRuntime, COST_PROFILE_EDGE, COST_TRIP_CHECK_BASE, COST_TRIP_CHECK_PER_EDGE,
};
pub use stride_prof::{
    ChunkSampling, StrideProfConfig, StrideProfData, StrideProfEngine, StrideProfStats,
};
pub use text::{
    edge_profile_from_text, edge_profile_to_text, stride_profile_from_text, stride_profile_to_text,
    ProfileParseError,
};

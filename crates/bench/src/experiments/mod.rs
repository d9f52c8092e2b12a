//! One regenerator per table/figure of the paper's evaluation.
//!
//! | id | paper | function |
//! |----|-------|----------|
//! | `fig1` | Fig. 1 bid-length histogram | [`distributions::fig1`] |
//! | `fig2` | Fig. 2 ads-per-word-set Zipf | [`distributions::fig2`] |
//! | `fig3` | Fig. 3 MT vs bid lengths | [`distributions::fig3`] |
//! | `fig7` | Fig. 7 keyword vs combination skew | [`distributions::fig7`] |
//! | `throughput` | §VII-A throughput comparison | [`throughput::run`] |
//! | `fig8` | Fig. 8 bytes-read ratio vs corpus size | [`bytes::fig8`] |
//! | `modified-bytes` | §VII-A modified-index data volume | [`bytes::modified_bytes`] |
//! | `multiserver` | §VII-B + Fig. 9 | [`multiserver::run`] |
//! | `net-throughput` | loopback TCP cluster vs netsim fan-out model | [`net_throughput::run`] |
//! | `cost-model-fit` | §IV-A predicted vs measured cost | [`cost_model_fit::run`] |
//! | `fig10` | Fig. 10 re-mapping variants | [`remap::fig10`] |
//! | `counters` | §VII-C hardware counters | [`counters::run`] |
//! | `compression` | §VI compression example | [`compression::run`] |
//! | `ablation-*` | design-choice ablations | [`ablations`] |
//! | `extensions` | directory kinds, probe-cap recall, thread scaling | [`extensions`] |

pub mod ablations;
pub mod bytes;
pub mod compression;
pub mod cost_model_fit;
pub mod counters;
pub mod distributions;
pub mod extensions;
pub mod multiserver;
pub mod net_throughput;
pub mod remap;
pub mod throughput;

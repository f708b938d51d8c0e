//! Reorganization strategies: OREO and every comparison method of §VI-A3
//! and §VI-C.

pub mod greedy;
pub mod mts_optimal;
pub mod offline_template;
mod online;
pub mod oreo_adapter;
pub mod regret;
pub mod static_layout;
pub mod templates;

pub use greedy::GreedyPolicy;
pub use mts_optimal::MtsOptimalPolicy;
pub use offline_template::OfflineTemplatePolicy;
pub(crate) use online::OnlineBaseline;
pub use oreo_adapter::{Schedule, ScheduledPolicy};
pub use regret::RegretPolicy;
pub use static_layout::StaticPolicy;
pub use templates::TemplateLayouts;

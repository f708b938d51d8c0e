//! Assembly helpers: build comparable policy instances for a dataset bundle
//! so that every harness wires baselines identically.

use crate::policies::greedy::GreedyPolicy;
use crate::policies::mts_optimal::MtsOptimalPolicy;
use crate::policies::offline_template::OfflineTemplatePolicy;
use crate::policies::oreo_adapter::{Schedule, ScheduledPolicy};
use crate::policies::regret::RegretPolicy;
use crate::policies::static_layout::StaticPolicy;
use crate::policies::templates::TemplateLayouts;
use crate::policies::OnlineBaseline;
use oreo_core::{Oreo, OreoConfig};
use oreo_layout::{LayoutGenerator, QdTreeGenerator, RangeLayout, SharedSpec, ZOrderGenerator};
use oreo_query::Query;
use oreo_workload::{DatasetBundle, Segment};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::Arc;

/// Layout-generation technique under evaluation (Fig. 3 columns).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Technique {
    /// Qd-tree candidate generation.
    QdTree,
    /// Workload-aware Z-order candidate generation.
    ZOrder,
}

impl Technique {
    /// Human-readable name for report headers.
    pub fn label(self) -> &'static str {
        match self {
            Technique::QdTree => "Qd-tree",
            Technique::ZOrder => "Z-Order",
        }
    }
}

/// Instantiate the generator for a technique over a bundle. Z-order falls
/// back to the bundle's default sort column when the workload is cold.
pub fn make_generator(technique: Technique, bundle: &DatasetBundle) -> Arc<dyn LayoutGenerator> {
    match technique {
        Technique::QdTree => Arc::new(QdTreeGenerator::new()),
        Technique::ZOrder => Arc::new(ZOrderGenerator::with_defaults(vec![
            bundle.default_sort_col,
        ])),
    }
}

/// The default layout every online method starts from: range partitioning
/// on the bundle's natural ingest column ("partition by time", §IV-A).
pub fn default_spec(bundle: &DatasetBundle, k: usize, seed: u64) -> SharedSpec {
    let mut rng = StdRng::seed_from_u64(seed ^ 0xDEFA);
    let sample = bundle
        .table
        .sample(&mut rng, 4000.min(bundle.table.num_rows()));
    Arc::new(RangeLayout::from_sample(
        &sample,
        bundle.default_sort_col,
        k,
    ))
}

/// Everything the Fig. 3 / Table II harnesses need to build one policy set.
pub struct PolicySetup {
    /// The dataset and query templates under test.
    pub bundle: DatasetBundle,
    /// Which candidate-generation technique to use.
    pub technique: Technique,
    /// Shared OREO configuration for all policies.
    pub config: OreoConfig,
}

impl PolicySetup {
    /// Bundles a dataset, technique and configuration into one setup.
    pub fn new(bundle: DatasetBundle, technique: Technique, config: OreoConfig) -> Self {
        Self {
            bundle,
            technique,
            config,
        }
    }

    fn generator(&self) -> Arc<dyn LayoutGenerator> {
        make_generator(self.technique, &self.bundle)
    }

    /// The layout every online method starts from.
    fn initial_spec(&self) -> SharedSpec {
        default_spec(&self.bundle, self.config.partitions, self.config.seed)
    }

    /// The OREO policy as the paper's figures run it:
    /// [`Schedule::Configured`] with Δ = 0.
    pub fn oreo(&self) -> ScheduledPolicy {
        self.scheduled(Schedule::Configured(0))
    }

    /// The OREO policy driven by `schedule`.
    pub fn scheduled(&self, schedule: Schedule) -> ScheduledPolicy {
        let oreo = Oreo::new(
            Arc::clone(&self.bundle.table),
            self.initial_spec(),
            self.generator(),
            self.config.clone(),
        );
        ScheduledPolicy::new(oreo, schedule)
    }

    /// What Greedy and Regret share: OREO's candidate producer over the
    /// same start layout.
    fn online_baseline(&self) -> OnlineBaseline {
        OnlineBaseline::new(
            Arc::clone(&self.bundle.table),
            self.initial_spec(),
            self.generator(),
            &self.config,
        )
    }

    /// The Greedy baseline.
    pub fn greedy(&self) -> GreedyPolicy {
        GreedyPolicy::new(self.online_baseline())
    }

    /// The Regret baseline.
    pub fn regret(&self) -> RegretPolicy {
        RegretPolicy::new(self.online_baseline())
    }

    /// The Static baseline (needs the whole workload in advance).
    pub fn static_policy(&self, full_workload: &[Query]) -> StaticPolicy {
        StaticPolicy::build(
            &self.bundle.table,
            full_workload,
            &self.generator(),
            self.config.partitions,
            self.config.data_sample_rows,
            2_000,
            self.config.seed,
        )
    }

    /// Per-template (per-segment) layouts shared by MTS-Optimal and
    /// Offline-Optimal. Needs the generated stream, since each segment
    /// anchors a concrete query shape.
    pub fn template_layouts(&self, stream: &oreo_workload::QueryStream) -> TemplateLayouts {
        TemplateLayouts::build(
            &self.bundle.table,
            stream,
            &self.generator(),
            self.config.partitions,
            self.config.data_sample_rows,
            100,
            self.config.seed,
        )
    }

    /// MTS Optimal over a precomputed per-template state space.
    pub fn mts_optimal(&self, layouts: &TemplateLayouts) -> MtsOptimalPolicy {
        MtsOptimalPolicy::new(layouts, self.config.dumts_config())
    }

    /// Offline Optimal switching at template boundaries.
    pub fn offline_optimal(
        &self,
        layouts: &TemplateLayouts,
        segments: &[Segment],
    ) -> OfflineTemplatePolicy {
        OfflineTemplatePolicy::new(layouts, segments, self.config.alpha)
    }
}

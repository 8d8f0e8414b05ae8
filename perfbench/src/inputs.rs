//! Seeded inputs. The benchmark's `--seed` is the only source of input
//! randomness; the program under test only ever sees the generated inputs.

use dysel_kernel::XorShiftRng;
use dysel_workloads::{
    cutcp, histogram, kmeans, particlefilter, sgemm, spmv_csr, spmv_jds, stencil, CsrMatrix,
    JdsMatrix, Workload,
};

/// Input sizes of one instance of the 18-input audit suite: every kernel
/// family with the variant sets of the paper's case studies.
#[derive(Debug, Clone, Copy)]
pub struct SuiteSizes {
    /// Rows and columns of the 1%-dense random sparse matrix.
    pub spmv_n: usize,
    /// Rows of the diagonal sparse matrix.
    pub diag_n: usize,
    /// sgemm matrix edge.
    pub sgemm_n: usize,
    /// sgemm edge of the GPU-sized mixed-candidate input.
    pub sgemm_n_gpu: usize,
    /// stencil grid edge.
    pub stencil_n: usize,
    /// cutcp lattice and atom count.
    pub cutcp: cutcp::Shape,
    /// kmeans points, dimensions and clusters.
    pub kmeans: kmeans::Shape,
    /// particlefilter particles, window and frame.
    pub particles: particlefilter::Shape,
    /// histogram input elements.
    pub hist_n: usize,
}

/// The paper-§4.1 sizes the figure harness uses, unchanged: seed 42
/// reproduces its inputs exactly.
pub const PAPER: SuiteSizes = SuiteSizes {
    spmv_n: 16384,
    diag_n: 1 << 20,
    sgemm_n: 256,
    sgemm_n_gpu: 512,
    stencil_n: 96,
    cutcp: cutcp::Shape { n: 64, atoms: 4000 },
    kmeans: kmeans::Shape {
        n: 16384,
        d: 16,
        k: 8,
    },
    particles: particlefilter::Shape {
        particles: 32768,
        window: 64,
        frame: 1 << 16,
    },
    hist_n: 1 << 16,
};

/// The small end: every input keeps at least the 128 base work-groups
/// below which the runtime skips micro-profiling (§2.1), and room for a
/// profiling slice per variant, so every launch micro-profiles.
pub const SELECT: SuiteSizes = SuiteSizes {
    spmv_n: 4096,
    diag_n: 4096,
    sgemm_n: 192,
    sgemm_n_gpu: 192,
    stencil_n: 32,
    cutcp: cutcp::Shape { n: 32, atoms: 500 },
    kmeans: kmeans::Shape {
        n: 4096,
        d: 8,
        k: 4,
    },
    particles: particlefilter::Shape {
        particles: 4096,
        window: 16,
        frame: 1 << 14,
    },
    hist_n: 128 * histogram::ELEMS_PER_UNIT,
};

/// The service's sizes: the small end, with the cheap families grown so
/// that every signature's launch costs about the same host time (10-20
/// ms). Equal costs keep the latency distribution free of the gaps a
/// 1-ms next to a 20-ms signature would put around its median.
pub const SERVICE: SuiteSizes = SuiteSizes {
    diag_n: 49152,
    stencil_n: 48,
    kmeans: kmeans::Shape {
        n: 24576,
        d: 8,
        k: 4,
    },
    particles: particlefilter::Shape {
        particles: 12288,
        window: 16,
        frame: 1 << 14,
    },
    hist_n: 512 * histogram::ELEMS_PER_UNIT,
    ..SELECT
};

/// The audit suite at `sizes`, under stable unique names (the names the
/// service registers its signatures under).
pub fn suite(sizes: &SuiteSizes, seed: u64) -> Vec<(&'static str, Workload)> {
    let random = CsrMatrix::random(sizes.spmv_n, sizes.spmv_n, 0.01, seed);
    let diagonal = CsrMatrix::diagonal(sizes.diag_n);
    let jds = JdsMatrix::from_csr(&random);
    let sched = |m: &CsrMatrix| {
        spmv_csr::workload(
            "spmv-csr",
            m,
            seed,
            spmv_csr::cpu_schedule_variants(m.rows),
            spmv_csr::gpu_case4_variants(m.rows),
        )
    };
    vec![
        (
            "spmv-csr-random",
            spmv_csr::case4_workload("spmv-csr(random)", &random, seed),
        ),
        (
            "spmv-csr-diagonal",
            spmv_csr::case4_workload("spmv-csr(diagonal)", &diagonal, seed),
        ),
        ("spmv-csr-sched-random", sched(&random)),
        ("spmv-csr-sched-diagonal", sched(&diagonal)),
        (
            "spmv-csr-placements",
            spmv_csr::placement_workload("spmv-csr", &random, seed),
        ),
        ("spmv-jds", spmv_jds::workload(&jds, seed)),
        ("spmv-jds-vec", spmv_jds::vector_workload(&jds, seed)),
        (
            "sgemm-schedules",
            sgemm::schedules_workload(sizes.sgemm_n, seed),
        ),
        ("sgemm-mixed", sgemm::mixed_workload(sizes.sgemm_n, seed)),
        (
            "sgemm-mixed-gpu",
            sgemm::mixed_workload(sizes.sgemm_n_gpu, seed),
        ),
        ("sgemm-vec", sgemm::vector_workload(sizes.sgemm_n, seed)),
        ("stencil", stencil::workload(sizes.stencil_n, seed)),
        ("cutcp-schedules", cutcp::workload(sizes.cutcp, seed)),
        ("cutcp-mixed", cutcp::mixed_workload(sizes.cutcp, seed)),
        ("kmeans", kmeans::workload(sizes.kmeans, seed)),
        (
            "particlefilter",
            particlefilter::workload(sizes.particles, seed),
        ),
        (
            "histogram-uniform",
            histogram::workload(sizes.hist_n, histogram::Distribution::Uniform, seed),
        ),
        (
            "histogram-skewed",
            histogram::workload(sizes.hist_n, histogram::Distribution::Skewed, seed),
        ),
    ]
}

/// One submission of the service load: which tenant launches which
/// input (an index into the service's input list).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub struct Submission {
    /// Tenant id (never 0, the single-tenant default).
    pub tenant: u32,
    /// Index of the input, and so of the signature, launched.
    pub input: usize,
}

/// The service workload's seeded load: an open-loop phase at a fixed
/// rate, then a closed-loop phase on a disjoint set of tenants, so no
/// timing effect of the first phase can reach a lane of the second.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LoadPlan {
    /// Open-loop submissions; the i-th is due at `i * interval`.
    pub open: Vec<Submission>,
    /// Closed-loop submissions, issued in order.
    pub closed: Vec<Submission>,
}

/// Tenants per phase.
pub const TENANTS: u32 = 4;
/// Open-loop submissions.
pub const OPEN_LAUNCHES: usize = 300;
/// Closed-loop submissions.
pub const CLOSED_LAUNCHES: usize = 240;
/// Zipf exponent of tenant popularity.
const ZIPF_S: f64 = 1.1;

/// Draws the load for `inputs` signatures from `seed`.
///
/// Every signature gets the same number of submissions per phase (one
/// more for the first `launches % inputs`), in seeded order, so the work
/// a phase carries does not depend on the seed. Each submission's tenant
/// is drawn from a Zipf distribution over seeded tenant ranks: popular
/// tenants' streams turn warm early, while the rare tenants keep opening
/// new streams (a profiling launch and a journal append) to the end.
pub fn load_plan(seed: u64, inputs: usize) -> LoadPlan {
    let mut rng = XorShiftRng::seed_from_u64(seed ^ 0x5e41_11ce_10ad_9e11);
    let mut phase = |first_tenant: u32, launches: usize| -> Vec<Submission> {
        let mut tenants: Vec<u32> = (first_tenant..first_tenant + TENANTS).collect();
        shuffle(&mut tenants, &mut rng);
        let mut order: Vec<usize> = (0..launches).map(|i| i % inputs).collect();
        shuffle(&mut order, &mut rng);
        let cdf: Vec<f64> = (1..=tenants.len())
            .scan(0.0, |acc, rank| {
                *acc += (rank as f64).powf(-ZIPF_S);
                Some(*acc)
            })
            .collect();
        let total = cdf[cdf.len() - 1];
        order
            .into_iter()
            .map(|input| {
                let u = rng.next_f64() * total;
                let rank = cdf.partition_point(|&c| c <= u).min(tenants.len() - 1);
                Submission {
                    tenant: tenants[rank],
                    input,
                }
            })
            .collect()
    };
    let open = phase(1, OPEN_LAUNCHES);
    let closed = phase(1 + TENANTS, CLOSED_LAUNCHES);
    LoadPlan { open, closed }
}

/// Seeded Fisher-Yates shuffle.
fn shuffle<T>(items: &mut [T], rng: &mut XorShiftRng) {
    for i in (1..items.len()).rev() {
        items.swap(i, rng.gen_range_usize(0, i + 1));
    }
}

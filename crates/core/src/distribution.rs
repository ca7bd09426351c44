//! Initial data distribution (paper Sec. 2.2, "Initial Data
//! Distribution").
//!
//! The driving observation (quoted): *"For each tensor, one or more of
//! the five loop indices b, c, k, h, w are absent in the indexing
//! expression … identical data slices of a tensor will be accessed by
//! all processors along any missing loop index."* The distribution
//! therefore sub-slices each tensor's per-group slice along `c` across
//! the processors that share it:
//!
//! * `Ker[k, c, r, s]` — missing `b, h, w`: the `(i_c, i_k)` slice
//!   (`W_c × W_k × N_r × N_s` elements) is split along `c` into
//!   `P_b·P_h·P_w` sub-slices, one per rank of the `bhw` fiber.
//! * `In[b, c, x, y]` — missing `k`: the `(i_b, i_c, i_h, i_w)` slice is
//!   split along `c` into `P_k` sub-slices, one per rank of the `k`
//!   fiber.
//! * `Out[b, k, w, h]` — missing `c`: allocated in full on every rank
//!   (replicated along `c` when `P_c > 1`), *"to avoid additional data
//!   movement compared to that required in the global-memory
//!   solution"*.
//!
//! Every shard is materialized deterministically from the workload seed
//! (a pure function of global coordinates), so distribution requires no
//! bootstrap communication and any rank's data can be independently
//! recomputed for verification.

use distconv_cost::DistPlan;
use distconv_simnet::CartGrid;
use distconv_tensor::shape::BlockDist;
use distconv_tensor::{conv_input_extent, Range4, Scalar, Shape4, Tensor4};

/// Seed-offset for the kernel tensor (matches
/// `distconv_conv::kernels::workload`).
pub const KER_SEED_XOR: u64 = 0xABCD_EF01_2345_6789;

/// A rank's placement within the plan's processor grid plus its
/// materialized initial shards.
pub struct RankData<T> {
    /// Grid coordinates `[i_b, i_k, i_c, i_h, i_w]`.
    pub coords: [usize; 5],
    /// Linear index of this rank's position along the `bhw` fiber
    /// (row-major over `(i_b, i_h, i_w)`), used by the `Ker`
    /// sub-slicing.
    pub bhw_pos: usize,
    /// The rank's `Out` slice, zero-initialized
    /// (`[W_b, W_k, W_w, W_h]`, global origin [`RankData::out_origin`]).
    pub out_slice: Tensor4<T>,
    /// Global origin of the `Out` slice.
    pub out_origin: [usize; 4],
    /// The rank's `In` sub-slice
    /// (`[W_b, c_in_count, X_w, Y_h]`, origin [`RankData::in_origin`]).
    pub in_shard: Tensor4<T>,
    /// Global origin of the `In` sub-slice (b, c, x, y).
    pub in_origin: [usize; 4],
    /// Channels (relative to the slice's `W_c` range) covered by the
    /// `In` sub-slice: `[lo, hi)`.
    pub in_c_range: (usize, usize),
    /// The rank's `Ker` sub-slice
    /// (`[W_k, c_ker_count, N_r, N_s]`, origin [`RankData::ker_origin`]).
    pub ker_shard: Tensor4<T>,
    /// Global origin of the `Ker` sub-slice (k, c, r, s).
    pub ker_origin: [usize; 4],
    /// Channels (relative to `W_c`) covered by the `Ker` sub-slice.
    pub ker_c_range: (usize, usize),
}

impl<T: Scalar> RankData<T> {
    /// Total elements across all shards (the initial-distribution
    /// memory footprint the paper's `M_T` denotes).
    pub fn footprint(&self) -> usize {
        self.out_slice.len() + self.in_shard.len() + self.ker_shard.len()
    }
}

/// The grid for a plan (dimension order `[b, k, c, h, w]`, rank id =
/// row-major grid index).
pub fn plan_grid(plan: &DistPlan) -> CartGrid {
    let g = plan.grid;
    CartGrid::new(vec![g.pb, g.pk, g.pc, g.ph, g.pw])
}

/// `In` sub-slice channel distribution: `W_c` channels over the `P_k`
/// fiber.
pub fn in_c_dist(plan: &DistPlan) -> BlockDist {
    BlockDist::new(plan.w.wc, plan.grid.pk)
}

/// `Ker` sub-slice channel distribution: `W_c` channels over the
/// `P_b·P_h·P_w` fiber.
pub fn ker_c_dist(plan: &DistPlan) -> BlockDist {
    BlockDist::new(plan.w.wc, plan.grid.pbhw())
}

/// A rank's shard *geometry*: the global regions its initial `In` and
/// `Ker` sub-slices cover, without materializing any data. Pure
/// function of `(plan, rank_id)` — the degraded-recovery layer uses it
/// to compute redistribution volumes between an old and a shrunken grid
/// by region intersection, exactly like the inter-layer accounting in
/// [`crate::network`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ShardGeometry {
    /// Grid coordinates `[i_b, i_k, i_c, i_h, i_w]`.
    pub coords: [usize; 5],
    /// Linear position along the `bhw` fiber (see [`RankData::bhw_pos`]).
    pub bhw_pos: usize,
    /// Global `In` region `(b, c, x, y)` of the rank's sub-slice.
    pub in_region: Range4,
    /// Channels (relative to `W_c`) of the `In` sub-slice: `[lo, hi)`.
    pub in_c_range: (usize, usize),
    /// Global `Ker` region `(k, c, r, s)` of the rank's sub-slice.
    pub ker_region: Range4,
    /// Channels (relative to `W_c`) of the `Ker` sub-slice.
    pub ker_c_range: (usize, usize),
}

/// Compute rank `rank_id`'s shard geometry for `plan` (data-free twin
/// of [`distribute`] — kept in lockstep by a unit test).
pub fn shard_geometry(plan: &DistPlan, rank_id: usize) -> ShardGeometry {
    let p = &plan.problem;
    let w = plan.w;
    let grid = plan_grid(plan);
    let coords_v = grid.coords_of(rank_id);
    let coords: [usize; 5] = [
        coords_v[0],
        coords_v[1],
        coords_v[2],
        coords_v[3],
        coords_v[4],
    ];
    let [ib, ik, ic, ih, iw] = coords;
    let bhw_pos = (ib * plan.grid.ph + ih) * plan.grid.pw + iw;

    // In sub-slice: channels of the slice split over the k fiber.
    let (c_lo, c_hi) = in_c_dist(plan).range(ik);
    let in_origin = [
        ib * w.wb,
        ic * w.wc + c_lo,
        p.sw * (iw * w.ww),
        p.sh * (ih * w.wh),
    ];
    let in_extents = [
        w.wb,
        c_hi - c_lo,
        conv_input_extent(w.ww, p.sw, p.nr),
        conv_input_extent(w.wh, p.sh, p.ns),
    ];

    // Ker sub-slice: channels of the slice split over the bhw fiber.
    let (kc_lo, kc_hi) = ker_c_dist(plan).range(bhw_pos);
    let ker_origin = [ik * w.wk, ic * w.wc + kc_lo, 0, 0];
    let ker_extents = [w.wk, kc_hi - kc_lo, p.nr, p.ns];

    let hi = |o: [usize; 4], e: [usize; 4]| [o[0] + e[0], o[1] + e[1], o[2] + e[2], o[3] + e[3]];
    ShardGeometry {
        coords,
        bhw_pos,
        in_region: Range4::new(in_origin, hi(in_origin, in_extents)),
        in_c_range: (c_lo, c_hi),
        ker_region: Range4::new(ker_origin, hi(ker_origin, ker_extents)),
        ker_c_range: (kc_lo, kc_hi),
    }
}

/// Materialize rank `rank_id`'s initial data for `plan`: the `In`
/// shard from `seed` — unless `carried_in` already holds it (a network
/// layer fed by redistribution) — and the `Ker` shard from `ker_seed`
/// (`seed ^ KER_SEED_XOR` for a single layer).
pub fn distribute<T: Scalar>(
    plan: &DistPlan,
    rank_id: usize,
    seed: u64,
    ker_seed: u64,
    carried_in: Option<Tensor4<T>>,
) -> RankData<T> {
    let p = &plan.problem;
    let w = plan.w;
    let geom = shard_geometry(plan, rank_id);
    let [ib, ik, _ic, ih, iw] = geom.coords;

    // --- Out slice: the full work-partition output, zeroed. ---
    let out_origin = [ib * w.wb, ik * w.wk, iw * w.ww, ih * w.wh];
    let out_slice = Tensor4::zeros(Shape4::new(w.wb, w.wk, w.ww, w.wh));

    // --- In sub-slice: channels of the slice split over the k fiber. ---
    let in_origin = geom.in_region.lo;
    let in_shard = carried_in.unwrap_or_else(|| {
        let [eb, ec, ex, ey] = geom.in_region.extents();
        Tensor4::random_window(
            Shape4::new(eb, ec, ex, ey),
            seed,
            in_origin,
            Shape4::new(p.nb, p.nc, p.in_w(), p.in_h()),
        )
    });

    // --- Ker sub-slice: channels of the slice split over the bhw fiber. ---
    let global_ker_shape = Shape4::new(p.nk, p.nc, p.nr, p.ns);
    let ker_origin = geom.ker_region.lo;
    let [kk, kc, kr, ks] = geom.ker_region.extents();
    let ker_shard = Tensor4::random_window(
        Shape4::new(kk, kc, kr, ks),
        ker_seed,
        ker_origin,
        global_ker_shape,
    );

    RankData {
        coords: geom.coords,
        bhw_pos: geom.bhw_pos,
        out_slice,
        out_origin,
        in_shard,
        in_origin,
        in_c_range: geom.in_c_range,
        ker_shard,
        ker_origin,
        ker_c_range: geom.ker_c_range,
    }
}

/// Global `Out` range covered by a rank's slice.
pub fn out_range(plan: &DistPlan, coords: [usize; 5]) -> Range4 {
    let w = plan.w;
    let [ib, ik, _ic, ih, iw] = coords;
    Range4::new(
        [ib * w.wb, ik * w.wk, iw * w.ww, ih * w.wh],
        [
            (ib + 1) * w.wb,
            (ik + 1) * w.wk,
            (iw + 1) * w.ww,
            (ih + 1) * w.wh,
        ],
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use distconv_conv::kernels::workload;
    use distconv_cost::{Conv2dProblem, MachineSpec, Planner};

    fn plan16() -> DistPlan {
        Planner::new(
            Conv2dProblem::square(4, 16, 16, 8, 3),
            MachineSpec::new(16, 1 << 20),
        )
        .plan()
        .unwrap()
    }

    #[test]
    fn shards_match_global_workload() {
        let plan = plan16();
        let p = plan.problem;
        let (input, ker) = workload::<f32>(&p, 99);
        for rank in 0..16 {
            let rd = distribute::<f32>(&plan, rank, 99, 99 ^ KER_SEED_XOR, None);
            // Every In shard element equals the global tensor's value.
            for idx in rd.in_shard.shape().full_range().iter() {
                let g = [
                    rd.in_origin[0] + idx[0],
                    rd.in_origin[1] + idx[1],
                    rd.in_origin[2] + idx[2],
                    rd.in_origin[3] + idx[3],
                ];
                assert_eq!(rd.in_shard[idx], input[g], "rank {rank} In at {idx:?}");
            }
            for idx in rd.ker_shard.shape().full_range().iter() {
                let g = [
                    rd.ker_origin[0] + idx[0],
                    rd.ker_origin[1] + idx[1],
                    rd.ker_origin[2] + idx[2],
                    rd.ker_origin[3] + idx[3],
                ];
                assert_eq!(rd.ker_shard[idx], ker[g], "rank {rank} Ker at {idx:?}");
            }
        }
    }

    #[test]
    fn ker_shards_tile_each_slice_exactly() {
        // Within one (i_c, i_k) group, the bhw fiber's Ker shards must
        // partition the W_k × W_c slice with no gaps or overlaps.
        let plan = plan16();
        let grid = plan_grid(&plan);
        let g = plan.grid;
        for ic in 0..g.pc {
            for ik in 0..g.pk {
                let mut covered = vec![false; plan.w.wc];
                for ib in 0..g.pb {
                    for ih in 0..g.ph {
                        for iw in 0..g.pw {
                            let id = grid.index_of(&[ib, ik, ic, ih, iw]);
                            let rd = distribute::<f32>(&plan, id, 1, 1 ^ KER_SEED_XOR, None);
                            let (lo, hi) = rd.ker_c_range;
                            for slot in &mut covered[lo..hi] {
                                assert!(!*slot, "channel covered twice");
                                *slot = true;
                            }
                        }
                    }
                }
                assert!(covered.iter().all(|&x| x), "channels uncovered");
            }
        }
    }

    #[test]
    fn in_shards_tile_each_slice_exactly() {
        let plan = plan16();
        let grid = plan_grid(&plan);
        let g = plan.grid;
        for ib in 0..g.pb {
            for ic in 0..g.pc {
                for ih in 0..g.ph {
                    for iw in 0..g.pw {
                        let mut covered = vec![false; plan.w.wc];
                        for ik in 0..g.pk {
                            let id = grid.index_of(&[ib, ik, ic, ih, iw]);
                            let rd = distribute::<f32>(&plan, id, 1, 1 ^ KER_SEED_XOR, None);
                            let (lo, hi) = rd.in_c_range;
                            for slot in &mut covered[lo..hi] {
                                assert!(!*slot);
                                *slot = true;
                            }
                        }
                        assert!(covered.iter().all(|&x| x));
                    }
                }
            }
        }
    }

    #[test]
    fn out_slices_cover_output_with_c_replication() {
        let plan = plan16();
        let p = plan.problem;
        let grid = plan_grid(&plan);
        let mut count = vec![0usize; (p.size_out()) as usize];
        let out_shape = Shape4::new(p.nb, p.nk, p.nw, p.nh);
        for id in 0..16 {
            let coords_v = grid.coords_of(id);
            let r = out_range(
                &plan,
                [
                    coords_v[0],
                    coords_v[1],
                    coords_v[2],
                    coords_v[3],
                    coords_v[4],
                ],
            );
            for idx in r.iter() {
                count[out_shape.offset(idx)] += 1;
            }
        }
        // Every output element covered exactly P_c times.
        assert!(count.iter().all(|&c| c == plan.grid.pc));
    }

    #[test]
    fn geometry_matches_distribute() {
        // shard_geometry is the data-free twin of distribute: same
        // coords, same origins, same shapes, for every rank.
        let plan = plan16();
        for r in 0..16 {
            let geom = shard_geometry(&plan, r);
            let data = distribute::<f32>(&plan, r, 7, 7 ^ KER_SEED_XOR, None);
            assert_eq!(geom.coords, data.coords);
            assert_eq!(geom.bhw_pos, data.bhw_pos);
            assert_eq!(geom.in_region.lo, data.in_origin);
            assert_eq!(geom.in_region.shape(), data.in_shard.shape());
            assert_eq!(geom.in_c_range, data.in_c_range);
            assert_eq!(geom.ker_region.lo, data.ker_origin);
            assert_eq!(geom.ker_region.shape(), data.ker_shard.shape());
            assert_eq!(geom.ker_c_range, data.ker_c_range);
        }
    }

    #[test]
    fn footprint_tracks_m_t() {
        // Total initial footprint across ranks ≈ Pc·|Out| + |In| + |Ker|
        // (exact when Ph = Pw = 1: no spatial halo overlap).
        let p = Conv2dProblem::square(4, 16, 16, 8, 3);
        let plan = Planner::new(p, MachineSpec::new(8, 1 << 20))
            .with_forced_pc(1)
            .plan()
            .unwrap();
        if plan.grid.ph == 1 && plan.grid.pw == 1 {
            let total: usize = (0..8)
                .map(|r| distribute::<f32>(&plan, r, 0, KER_SEED_XOR, None).footprint())
                .sum();
            let expect = p.size_out() as usize + p.size_in() as usize + p.size_ker() as usize;
            assert_eq!(total, expect);
        }
    }
}

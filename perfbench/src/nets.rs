//! The shapes and machines the workloads run: the three E17 nets, the
//! ResNet representative layer, and the simulated machine sizes.

use distconv_cost::Conv2dProblem;

/// Ranks per cluster in `serve-mixed` (the serving layer's machine).
pub const SERVE_P: usize = 4;
/// Ranks in `net-p256`.
pub const NET_P: usize = 256;
/// Ranks in `layer-rep`.
pub const REP_P: usize = 4;
/// Per-rank memory of every simulated machine, in words.
pub const MEM: usize = 1 << 22;

/// The E17 network zoo (`distconv_bench::autotune_nets`): channel
/// expansion, stride-2 downsampling, and 3×3/1×1 alternation.
pub fn nets() -> Vec<(&'static str, Vec<Conv2dProblem>)> {
    vec![
        (
            "expand",
            vec![
                Conv2dProblem::new(4, 16, 4, 16, 16, 3, 3, 1, 1),
                Conv2dProblem::new(4, 32, 16, 14, 14, 3, 3, 1, 1),
                Conv2dProblem::new(4, 64, 32, 12, 12, 3, 3, 1, 1),
                Conv2dProblem::new(4, 64, 64, 10, 10, 3, 3, 1, 1),
            ],
        ),
        (
            "downsample",
            vec![
                Conv2dProblem::new(8, 8, 4, 32, 32, 3, 3, 1, 1),
                Conv2dProblem::new(8, 16, 8, 16, 16, 2, 2, 2, 2),
                Conv2dProblem::new(8, 32, 16, 14, 14, 3, 3, 1, 1),
                Conv2dProblem::new(8, 32, 32, 7, 7, 2, 2, 2, 2),
            ],
        ),
        (
            "mixer",
            vec![
                Conv2dProblem::new(2, 32, 8, 8, 8, 3, 3, 1, 1),
                Conv2dProblem::new(2, 64, 32, 8, 8, 1, 1, 1, 1),
                Conv2dProblem::new(2, 32, 64, 6, 6, 3, 3, 1, 1),
                Conv2dProblem::new(2, 16, 32, 6, 6, 1, 1, 1, 1),
            ],
        ),
    ]
}

/// Names of the nets, in [`nets`] order.
pub fn net_names() -> Vec<&'static str> {
    nets().into_iter().map(|(n, _)| n).collect()
}

/// Layers per net (every E17 net has the same depth).
pub fn depth() -> usize {
    nets()[0].1.len()
}

/// The ResNet-style representative layer: Nb=4, Nc=Nk=64, 56×56, 3×3.
pub fn rep_layer() -> Conv2dProblem {
    Conv2dProblem::new(4, 64, 64, 56, 56, 3, 3, 1, 1)
}

#[cfg(test)]
mod tests {
    #[test]
    fn nets_are_the_e17_zoo() {
        let ours = super::nets();
        let e17 = distconv_bench::autotune_nets();
        assert_eq!(ours, e17);
        assert!(ours.iter().all(|(_, l)| l.len() == super::depth()));
    }
}

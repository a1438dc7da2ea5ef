//! The error type of the session API.
//!
//! Every way a factorization request can be invalid — and every way a
//! checkpoint file can be unusable — is a variant of [`NmfError`], so
//! callers branch on *what* went wrong instead of parsing panic strings.
//! Messages are written to be actionable: they state the constraint that
//! was violated **and** a concrete value that would satisfy it (e.g. a
//! grid mismatch lists the grids that do divide the requested rank
//! count).
//!
//! The single [`factorize`](crate::harness::factorize) wrapper panics
//! by construction: it builds through
//! [`NmfBuilder`](crate::session::NmfBuilder) and panics on `Err`, so
//! the validation logic exists exactly once.

use crate::grid::Grid;
use nmf_nls::SolverKind;
use std::fmt;
use std::path::PathBuf;

/// Why a session request (build, refit, save, load) failed.
#[derive(Debug)]
#[non_exhaustive]
pub enum NmfError {
    /// The input matrix has a zero dimension.
    EmptyInput { m: usize, n: usize },
    /// The builder was never told the factorization rank `k`.
    MissingRank,
    /// A resume builder was never given a data matrix.
    MissingInput,
    /// `k` outside `1..=min(m, n)`.
    RankOutOfRange { k: usize, m: usize, n: usize },
    /// The chosen NLS solver cannot handle this `k`.
    SolverRankLimit {
        solver: SolverKind,
        k: usize,
        limit: usize,
    },
    /// Zero virtual ranks requested.
    NoRanks,
    /// [`Algo::Sequential`](crate::harness::Algo::Sequential) on more
    /// than one rank.
    SequentialRanks { ranks: usize },
    /// A 1D algorithm was given more ranks than the shorter matrix
    /// dimension supports.
    TooManyRanks {
        algo: &'static str,
        ranks: usize,
        m: usize,
        n: usize,
    },
    /// An explicit grid whose size differs from the requested rank count.
    GridMismatch { grid: Grid, ranks: usize },
    /// A grid that leaves some rank without any factor rows/columns.
    GridTooLarge { grid: Grid, m: usize, n: usize },
    /// A negative or non-finite convergence tolerance.
    InvalidTolerance { tol: f64 },
    /// A windowed convergence policy with an empty window.
    InvalidWindow,
    /// Negative or non-finite Frobenius regularization.
    InvalidRegularization { l2_w: f64, l2_h: f64 },
    /// A warm-start factor with the wrong shape. `which` is `"W"` or
    /// `"H^T"`.
    WarmStartShape {
        which: &'static str,
        expected: (usize, usize),
        got: (usize, usize),
    },
    /// A warm-start factor with negative or non-finite entries.
    WarmStartInvalid { which: &'static str },
    /// An I/O failure while reading or writing a checkpoint.
    Io {
        path: PathBuf,
        source: std::io::Error,
    },
    /// A checkpoint file that is not a valid checkpoint (bad magic,
    /// truncation, or a payload checksum mismatch).
    Corrupt { path: PathBuf, reason: String },
    /// A checkpoint written by an incompatible format version.
    UnsupportedVersion {
        path: PathBuf,
        found: u32,
        supported: u32,
    },
    /// A checkpoint whose recorded problem shape disagrees with the
    /// input (or with its own factor blocks).
    CheckpointMismatch {
        field: &'static str,
        expected: usize,
        found: usize,
    },
    /// A checkpoint whose stored config fingerprint does not match its
    /// stored config fields (in-place edit or config drift).
    FingerprintMismatch { expected: u64, found: u64 },
    /// One or more invalid command-line arguments (every problem found,
    /// not just the first).
    InvalidArgs { errors: Vec<String> },
}

/// Divisor pairs `(pr, pc)` with `pr·pc = p`, pr ascending — the valid
/// explicit grids for `p` ranks.
fn grids_for(p: usize) -> String {
    let pairs: Vec<String> = (1..=p)
        .filter(|pr| p.is_multiple_of(*pr))
        .map(|pr| format!("{pr}x{}", p / pr))
        .collect();
    pairs.join(", ")
}

/// The largest rank count `≤ p` whose optimal grid fits an `m×n` input
/// (every rank owns at least one `W` row and one `H` column).
pub(crate) fn max_fitting_ranks(m: usize, n: usize, p: usize) -> usize {
    for q in (1..=p).rev() {
        let g = Grid::optimal(m, n, q);
        if grid_fits(g, m, n) {
            return q;
        }
    }
    1
}

/// Whether every rank of `grid` owns at least one `W` row and one `H`
/// column of an `m×n` input (the smallest block must still be divisible
/// among the ranks that share it).
pub(crate) fn grid_fits(grid: Grid, m: usize, n: usize) -> bool {
    m / grid.pr >= grid.pc && n / grid.pc >= grid.pr
}

impl fmt::Display for NmfError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            NmfError::EmptyInput { m, n } => write!(
                f,
                "input matrix is {m}x{n}; both dimensions must be at least 1"
            ),
            NmfError::MissingRank => write!(
                f,
                "no factorization rank set; call .rank(k) (or .config(..)) before .build()"
            ),
            NmfError::MissingInput => write!(
                f,
                "no input attached to the resume; call .on(&input) or .on_shared(&shared) \
                 before .build()"
            ),
            NmfError::RankOutOfRange { k, m, n } => write!(
                f,
                "rank k={k} is outside the valid range 1..={} for a {m}x{n} input",
                m.min(n)
            ),
            NmfError::SolverRankLimit { solver, k, limit } => write!(
                f,
                "solver {solver:?} supports k <= {limit}, but k={k} was requested; \
                 use k <= {limit} or a different solver (e.g. Hals)"
            ),
            NmfError::NoRanks => {
                write!(
                    f,
                    "at least one virtual rank is required; call .ranks(p) with p >= 1"
                )
            }
            NmfError::SequentialRanks { ranks } => write!(
                f,
                "Algo::Sequential runs on exactly one rank, but {ranks} were requested; \
                 use .ranks(1) or a parallel algorithm"
            ),
            NmfError::TooManyRanks { algo, ranks, m, n } => write!(
                f,
                "{algo} distributes both factors over all ranks, so a {m}x{n} input \
                 supports at most {} ranks ({ranks} requested)",
                m.min(n)
            ),
            NmfError::GridMismatch { grid, ranks } => write!(
                f,
                "a {}x{} grid needs {} ranks but {ranks} were requested; \
                 valid grids for {ranks} ranks: {}",
                grid.pr,
                grid.pc,
                grid.size(),
                grids_for(*ranks)
            ),
            NmfError::GridTooLarge { grid, m, n } => write!(
                f,
                "a {}x{} grid over a {m}x{n} input leaves some rank without factor rows \
                 (needs m/pr >= pc and n/pc >= pr); at most {} ranks fit this shape",
                grid.pr,
                grid.pc,
                max_fitting_ranks(*m, *n, grid.size())
            ),
            NmfError::InvalidTolerance { tol } => write!(
                f,
                "convergence tolerance must be finite and >= 0, got {tol}"
            ),
            NmfError::InvalidWindow => write!(
                f,
                "WindowedBudget needs window >= 1 (a 0-iteration look-back can never fire)"
            ),
            NmfError::InvalidRegularization { l2_w, l2_h } => write!(
                f,
                "regularization must be finite and >= 0, got l2_w={l2_w}, l2_h={l2_h}"
            ),
            NmfError::WarmStartShape {
                which,
                expected,
                got,
            } => write!(
                f,
                "warm-start {which} must be {}x{}, got {}x{}",
                expected.0, expected.1, got.0, got.1
            ),
            NmfError::WarmStartInvalid { which } => write!(
                f,
                "warm-start {which} must be nonnegative and finite \
                 (project with Mat::project_nonnegative first)"
            ),
            NmfError::Io { path, source } => {
                write!(f, "checkpoint I/O failed for {}: {source}", path.display())
            }
            NmfError::Corrupt { path, reason } => {
                write!(f, "checkpoint {} is corrupt: {reason}", path.display())
            }
            NmfError::UnsupportedVersion {
                path,
                found,
                supported,
            } => write!(
                f,
                "checkpoint {} has format version {found}; this build reads versions 1 \
                 through {supported}",
                path.display()
            ),
            NmfError::CheckpointMismatch {
                field,
                expected,
                found,
            } => write!(
                f,
                "checkpoint does not match this input: {field} is {found} in the file \
                 but {expected} here"
            ),
            NmfError::FingerprintMismatch { expected, found } => write!(
                f,
                "checkpoint config fingerprint {found:#018x} does not match its own \
                 config fields ({expected:#018x}); the header was altered"
            ),
            NmfError::InvalidArgs { errors } => {
                write!(f, "invalid arguments:")?;
                for e in errors {
                    write!(f, "\n  {e}")?;
                }
                Ok(())
            }
        }
    }
}

impl std::error::Error for NmfError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            NmfError::Io { source, .. } => Some(source),
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn grid_suggestions_list_divisor_pairs() {
        let e = NmfError::GridMismatch {
            grid: Grid::new(2, 3),
            ranks: 4,
        };
        let msg = e.to_string();
        assert!(
            msg.contains("1x4") && msg.contains("2x2") && msg.contains("4x1"),
            "{msg}"
        );
    }

    #[test]
    fn grid_fits_matches_per_rank_ownership() {
        assert!(grid_fits(Grid::new(2, 2), 20, 16));
        // 20/8 = 2 < 8 columns sharing each block.
        assert!(!grid_fits(Grid::new(8, 8), 20, 16));
        assert!(grid_fits(Grid::new(4, 1), 4, 100));
        assert!(!grid_fits(Grid::new(5, 1), 4, 100));
    }

    #[test]
    fn max_fitting_ranks_is_sane() {
        assert_eq!(max_fitting_ranks(8, 8, 4), 4);
        assert!(max_fitting_ranks(4, 4, 64) <= 16);
        assert!(max_fitting_ranks(1, 1, 10) == 1);
    }
}

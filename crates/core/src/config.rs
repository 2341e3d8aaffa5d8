//! SOLERO configuration knobs.
//!
//! The defaults match the paper's evaluated configuration; the non-
//! default values exist to reproduce its ablation measurements
//! (`Unelided-SOLERO`, `WeakBarrier-SOLERO`) and to make tests
//! deterministic.

use solero_runtime::fence::BarrierMode;
use solero_runtime::spin::SpinConfig;

use crate::adaptive::AdaptiveBudgets;

/// Whether read-only critical sections elide the lock.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ElisionMode {
    /// Elide writes to the lock word for read-only sections (SOLERO).
    #[default]
    Elide,
    /// Execute read-only sections as writing sections — the paper's
    /// `Unelided-SOLERO` ablation, which bounds SOLERO's overhead over
    /// the conventional lock (measured < 1.4%).
    NoElide,
}

/// Tuning knobs for a [`SoleroLock`](crate::SoleroLock).
///
/// # Examples
///
/// ```
/// use solero::{SoleroConfig, ElisionMode};
/// use solero_runtime::fence::BarrierMode;
///
/// let paper_default = SoleroConfig::default();
/// assert_eq!(paper_default.fallback_threshold, 1);
///
/// let weak_barrier = SoleroConfig {
///     barrier: BarrierMode::Weak,
///     ..SoleroConfig::default()
/// };
/// assert_eq!(weak_barrier.elision, ElisionMode::Elide);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SoleroConfig {
    /// Elide read-only sections or not.
    pub elision: ElisionMode,
    /// Memory fences on the read-only fast path (§3.4). `Weak`
    /// reproduces the incorrect-fence `WeakBarrier-SOLERO` measurement.
    pub barrier: BarrierMode,
    /// Speculative failures tolerated before a read-only section falls
    /// back to acquiring the lock. The paper uses 1: "the fallback
    /// occurs after one failure".
    pub fallback_threshold: u32,
    /// Three-tier contention loop sizes (Figure 3 / Figure 8), the one
    /// back-off policy: a contended writer's CAS probes (which the
    /// retry-exhausted fallback and a forfeited section also take) and
    /// the slow read entry's wait for the word to free. The
    /// conventional [`TasukiLock`](crate::TasukiLock) takes no
    /// configuration: its contended writer always waits on the default
    /// tiers.
    pub spin: SpinConfig,
    /// Deterministic validation period at check-points: in addition to
    /// asynchronous events, every `checkpoint_period`-th poll validates.
    /// `0` disables the deterministic fallback (events only).
    pub checkpoint_period: u64,
    /// Adaptive elision: when set, the lock carries an
    /// [`AdaptivePolicy`](crate::AdaptivePolicy) with these budgets and
    /// consults it at every read-section entry. `None` (the paper's
    /// configuration) speculates unconditionally.
    pub adaptive: Option<AdaptiveBudgets>,
}

impl Default for SoleroConfig {
    fn default() -> Self {
        SoleroConfig {
            elision: ElisionMode::Elide,
            barrier: BarrierMode::Strong,
            fallback_threshold: 1,
            spin: SpinConfig::default(),
            checkpoint_period: 1024,
            adaptive: None,
        }
    }
}

impl SoleroConfig {
    /// Starts a builder from the paper's default configuration.
    ///
    /// ```
    /// use solero::SoleroConfig;
    ///
    /// let cfg = SoleroConfig::builder().retries(3).weak_barrier(true).build();
    /// assert_eq!(cfg.fallback_threshold, 3);
    /// ```
    pub fn builder() -> SoleroConfigBuilder {
        SoleroConfigBuilder {
            cfg: Self::default(),
        }
    }

}

/// Builds a [`SoleroConfig`] starting from the paper's defaults; the
/// single construction path for ablation and tuning variants.
#[derive(Debug, Clone, Copy)]
pub struct SoleroConfigBuilder {
    cfg: SoleroConfig,
}

impl SoleroConfigBuilder {
    /// Speculative failures tolerated before falling back to acquiring
    /// the lock (the paper's value is 1). Clamped to at least 1.
    pub fn retries(mut self, n: u32) -> Self {
        self.cfg.fallback_threshold = n.max(1);
        self
    }

    /// `true` selects the incorrect-fence `WeakBarrier-SOLERO` ablation;
    /// `false` restores the correct strong fences.
    pub fn weak_barrier(mut self, weak: bool) -> Self {
        self.cfg.barrier = if weak {
            BarrierMode::Weak
        } else {
            BarrierMode::Strong
        };
        self
    }

    /// `true` selects the `Unelided-SOLERO` ablation (read-only sections
    /// acquire the lock); `false` restores elision.
    pub fn unelided(mut self, unelided: bool) -> Self {
        self.cfg.elision = if unelided {
            ElisionMode::NoElide
        } else {
            ElisionMode::Elide
        };
        self
    }

    /// Three-tier contention loop sizes.
    pub fn spin(mut self, spin: SpinConfig) -> Self {
        self.cfg.spin = spin;
        self
    }

    /// Deterministic validation period at check-points (`0` disables).
    pub fn checkpoint_period(mut self, period: u64) -> Self {
        self.cfg.checkpoint_period = period;
        self
    }

    /// `true` enables the adaptive elision policy with the default
    /// budgets (the bench fleet's `Adaptive-SOLERO` contender); `false`
    /// restores unconditional speculation.
    pub fn adaptive(mut self, on: bool) -> Self {
        self.cfg.adaptive = on.then(AdaptiveBudgets::default);
        self
    }

    /// Adaptive elision with explicit budgets.
    pub fn adaptive_budgets(mut self, budgets: AdaptiveBudgets) -> Self {
        self.cfg.adaptive = Some(budgets);
        self
    }

    /// The finished configuration.
    pub fn build(self) -> SoleroConfig {
        self.cfg
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_matches_paper() {
        let c = SoleroConfig::default();
        assert_eq!(c.elision, ElisionMode::Elide);
        assert_eq!(c.barrier, BarrierMode::Strong);
        assert_eq!(c.fallback_threshold, 1);
    }

    #[test]
    fn ablation_spellings() {
        let unelided = SoleroConfig::builder().unelided(true).build();
        assert_eq!(unelided.elision, ElisionMode::NoElide);
        let weak = SoleroConfig::builder().weak_barrier(true).build();
        assert_eq!(weak.barrier, BarrierMode::Weak);
    }

    #[test]
    fn builder_covers_every_knob() {
        let cfg = SoleroConfig::builder()
            .retries(7)
            .weak_barrier(true)
            .checkpoint_period(64)
            .spin(SpinConfig::immediate())
            .build();
        assert_eq!(cfg.fallback_threshold, 7);
        assert_eq!(cfg.barrier, BarrierMode::Weak);
        assert_eq!(cfg.checkpoint_period, 64);
        assert_eq!(cfg.spin, SpinConfig::immediate());
        // retries(0) still falls back eventually (threshold >= 1).
        assert_eq!(SoleroConfig::builder().retries(0).build().fallback_threshold, 1);
        // Defaults flow through untouched.
        assert_eq!(SoleroConfig::builder().build(), SoleroConfig::default());
    }

    #[test]
    fn adaptive_knob_round_trips() {
        assert_eq!(SoleroConfig::default().adaptive, None);
        let on = SoleroConfig::builder().adaptive(true).build();
        assert_eq!(on.adaptive, Some(AdaptiveBudgets::default()));
        let off = SoleroConfig::builder().adaptive(true).adaptive(false).build();
        assert_eq!(off, SoleroConfig::default());
        let custom = SoleroConfig::builder()
            .adaptive_budgets(AdaptiveBudgets::minimal())
            .build();
        assert_eq!(custom.adaptive, Some(AdaptiveBudgets::minimal()));
    }
}

"""Branch prediction logic.

Two-level global-history direction predictor (n-bit BHR indexing a table
of 2^n two-bit saturating counters), a set-associative tagged BTB, and a
static BTFNT fallback, composable into one configuration.  Named presets
model real processor families.

Conventions:
  - counters: 0..3, predict taken iff >= 2; BHR bit 0 is the most recent
    outcome and shifts left as branches resolve.
  - BTB indexing: set = pc mod sets; tag = the next tag_bits bits of the
    pc above the set bits.  pcs are instruction indices.
  - update() is called only for non-speculative branch resolutions; a
    speculative clone updates its BHR with predicted outcomes while the
    PHT and BTB stay frozen.
"""

from __future__ import annotations

from collections import namedtuple


class PredictorConfig(namedtuple(
        "PredictorConfig", "pht_bits btb_sets btb_ways btb_tag_bits window "
        "fallback init_counter", defaults=(None, None, 1, 4, 16, "none", 2))):
    """fallback: "none" (predict not-taken) or "btfnt"; init_counter 2 is
    weakly taken, so untrained predictors speculate.  Checked on
    construction, `_replace` included."""

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        if self.pht_bits is not None and not 0 < self.pht_bits <= 16:
            raise ValueError("pht_bits must be in 1..16")
        if self.btb_sets is not None and (self.btb_sets < 1
                                          or self.btb_sets & (self.btb_sets - 1)):
            raise ValueError("btb_sets must be a positive power of two")
        if self.btb_ways < 1:
            raise ValueError("btb_ways must be >= 1")
        if self.btb_tag_bits < 0:
            raise ValueError("btb_tag_bits must be >= 0")
        if self.fallback not in ("none", "btfnt"):
            raise ValueError(f"unknown fallback {self.fallback!r}")
        if not 0 <= self.init_counter <= 3:
            raise ValueError("init_counter must be in 0..3")
        if self.window < 0:
            raise ValueError("window must be >= 0")
        return self

    _make = classmethod(lambda cls, values: cls(*values))  # for `_replace`


PRESETS = {
    "cortex-a53": PredictorConfig(pht_bits=12, btb_sets=256, window=32),
    "cortex-a7": PredictorConfig(pht_bits=8, btb_sets=8, window=16),
    "pentium4": PredictorConfig(btb_sets=4096, window=40, fallback="btfnt"),
}


def preset(name: str) -> PredictorConfig:
    try:
        return PRESETS[name]
    except KeyError:
        raise ValueError(f"unknown preset {name!r}; "
                         f"known: {', '.join(sorted(PRESETS))}") from None


class TwoLevel:
    """n-bit BHR plus 2^n-entry PHT of 2-bit saturating counters; `pht`
    holds only the counters that differ from `init`."""

    def __init__(self, n: int, init_counter: int = 2):
        self.n = n
        self.init = init_counter
        self.bhr = 0
        self.pht: dict[int, int] = {}

    def counter(self, i: int) -> int:
        return self.pht.get(i, self.init)

    def predict(self) -> bool:
        return self.counter(self.bhr) >= 2

    def update(self, taken: bool) -> None:
        counter = self.counter(self.bhr)
        self.pht[self.bhr] = min(3, counter + 1) if taken else max(0, counter - 1)
        if self.pht[self.bhr] == self.init:
            del self.pht[self.bhr]  # keep the table canonical
        self.shift(taken)

    def shift(self, taken: bool) -> None:
        self.bhr = ((self.bhr << 1) | int(taken)) & ((1 << self.n) - 1)

    def clone(self) -> "TwoLevel":
        c = TwoLevel.__new__(TwoLevel)
        c.n = self.n
        c.init = self.init
        c.bhr = self.bhr
        c.pht = dict(self.pht)
        return c

    def __eq__(self, other) -> bool:
        return (isinstance(other, TwoLevel) and self.n == other.n
                and self.init == other.init and self.bhr == other.bhr
                and self.pht == other.pht)


class Btb:
    """Set-associative tagged BTB with LRU replacement.

    `sets` maps each non-empty set to its (tag, target) pairs, most recently
    used first, as a tuple that copies share.  A lookup hit refreshes
    recency; installs happen only at resolution.
    """

    def __init__(self, sets: int, ways: int = 1, tag_bits: int = 4):
        self.num_sets = sets
        self.ways = ways
        self.tag_bits = tag_bits
        self.set_bits = sets.bit_length() - 1
        self.sets: dict[int, tuple[tuple[int, int], ...]] = {}

    def _index(self, pc: int) -> tuple[int, int]:
        s = pc % self.num_sets
        tag = (pc >> self.set_bits) & ((1 << self.tag_bits) - 1)
        return s, tag

    def lookup(self, pc: int) -> int | None:
        s, tag = self._index(pc)
        entries = self.sets.get(s, ())
        for i, (t, target) in enumerate(entries):
            if t == tag:
                if i:
                    self.sets[s] = (entries[i],) + entries[:i] + entries[i + 1:]
                return target
        return None

    def install(self, pc: int, target: int) -> None:
        s, tag = self._index(pc)
        others = tuple(e for e in self.sets.get(s, ()) if e[0] != tag)
        self.sets[s] = ((tag, target),) + others[:self.ways - 1]

    def clone(self) -> "Btb":
        c = Btb.__new__(Btb)
        c.num_sets = self.num_sets
        c.ways = self.ways
        c.tag_bits = self.tag_bits
        c.set_bits = self.set_bits
        c.sets = dict(self.sets)
        return c

    def __eq__(self, other) -> bool:
        return (isinstance(other, Btb) and self.num_sets == other.num_sets
                and self.ways == other.ways and self.tag_bits == other.tag_bits
                and self.sets == other.sets)


class PredictorState:
    """Composite predictor owned by exactly one execution path; `trains`
    says whether `update` trains it."""

    trains = True

    def __init__(self, cfg: PredictorConfig):
        self.cfg = cfg
        self.two_level = (TwoLevel(cfg.pht_bits, cfg.init_counter)
                          if cfg.pht_bits is not None else None)
        self.btb = (Btb(cfg.btb_sets, cfg.btb_ways, cfg.btb_tag_bits)
                    if cfg.btb_sets is not None else None)

    def _static_fallback(self, pc: int, taken_target: int,
                         fallthrough: int) -> tuple[bool, int]:
        if self.cfg.fallback == "btfnt" and taken_target < pc:
            return True, taken_target
        return False, fallthrough

    def predict_conditional(self, pc: int, taken_target: int,
                            fallthrough: int) -> tuple[bool, int] | None:
        """Predicted (direction, next pc) for the conditional branch at pc,
        or None for "either".

        With a two-level predictor the direction comes from the counters;
        the target of a predicted-taken branch comes from the BTB when it
        hits (possibly a stale or aliased target) and otherwise from the
        statically known taken edge.  BTB-primary configurations predict
        taken-to-stored-target on a hit and fall back to the static policy
        on a miss.
        """
        if self.two_level is not None:
            if not self.two_level.predict():
                return False, fallthrough
            stored = self.btb.lookup(pc) if self.btb is not None else None
            return True, stored if stored is not None else taken_target
        if self.btb is not None:
            stored = self.btb.lookup(pc)
            if stored is not None:
                return True, stored
        return self._static_fallback(pc, taken_target, fallthrough)

    def predict_target(self, pc: int, resolved: int | None = None
                       ) -> int | None:
        """Predicted target for an indirect call site whose register holds
        the concrete target `resolved` (None if symbolic); None means no
        prediction."""
        if self.btb is None:
            return None
        return self.btb.lookup(pc)

    def update(self, pc: int, taken: bool, target: int | None,
               conditional: bool = True) -> None:
        """Non-speculative resolution: train counters/BHR and install the BTB
        entry of a taken branch.  Not-taken resolutions leave the BTB alone."""
        if conditional and self.two_level is not None:
            self.two_level.update(taken)
        if self.btb is not None and taken and target is not None:
            self.btb.install(pc, target)

    def spec_note_direction(self, taken: bool) -> None:
        """Shadow-BHR update with a *predicted* outcome during speculation."""
        if self.two_level is not None:
            self.two_level.shift(taken)

    def key(self) -> tuple:
        """The canonical state: (BHR, sorted BTB sets, sorted PHT), None
        for an absent table; a `Baseline` reads as its reset tables."""
        tl, btb = self.two_level, self.btb
        return (tl.bhr if tl else None,
                tuple(sorted(btb.sets.items())) if btb else None,
                tuple(sorted(tl.pht.items())) if tl else None)

    def clone(self) -> "PredictorState":
        c = PredictorState.__new__(PredictorState)
        c.cfg = self.cfg
        c.two_level = self.two_level.clone() if self.two_level else None
        c.btb = self.btb.clone() if self.btb else None
        return c

    def __eq__(self, other) -> bool:
        return (isinstance(other, PredictorState) and self.cfg == other.cfg
                and self.two_level == other.two_level and self.btb == other.btb)


class Baseline(PredictorState):
    """The always-mispredict model of prediction-agnostic tools: "either"
    at every conditional branch, the resolved target at an indirect call,
    and no training.  Its tables stay at reset, so one instance serves
    every path and `clone` returns it."""

    trains = False

    def predict_conditional(self, pc, taken_target, fallthrough):
        return None

    def predict_target(self, pc, resolved=None):
        return resolved

    def update(self, pc, taken, target, conditional=True) -> None:
        pass

    def spec_note_direction(self, taken) -> None:
        pass

    def clone(self) -> "Baseline":
        return self

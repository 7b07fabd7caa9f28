"""Network explanations: genetic-algorithm inverse design, the
steel-ratio/concrete-strength dependence study and Shapley attributions."""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .data import ENVELOPE, Specimen
from .errors import ConfigError
from .features import design_matrix
from .network import NetworkParameters, predict_rows
from .seeding import child_rng
from .trees.shapley import shapley_exact

GENE_NAMES = ("D", "t", "L", "fy", "fc")


@dataclass(frozen=True)
class GaConfig:
    population: int = 60
    generations: int = 100
    crossover_rate: float = 0.9
    mutation_rate: float = 0.1
    mutation_scale: float = 0.1   # fraction of each gene's range
    elite_count: int = 2
    seed: int = 0
    bounds: dict = field(default_factory=lambda: dict(ENVELOPE))

    def __post_init__(self):
        if self.population < 4:
            raise ConfigError("population must be >= 4")
        for r in (self.crossover_rate, self.mutation_rate):
            if not 0 <= r <= 1:
                raise ConfigError("rates must be in [0, 1]")
        if not 0 <= self.elite_count < self.population:
            raise ConfigError("elite_count must be in [0, population)")
        for name, (lo, hi) in self.bounds.items():
            if lo >= hi:
                raise ConfigError(f"bounds for {name} are not ordered")


def _repair_thickness(D, t):
    """Keep the wall thickness below the D > 2t boundary."""
    return np.minimum(t, 0.499 * D)


def _design_predict(model: NetworkParameters):
    names = list(model.feature_order)

    def fn(D, t, L, fy, fc):
        return predict_rows(model, design_matrix(D, t, L, fy, fc, names))

    return fn


def _run_ga(evaluate, lows, highs, config: GaConfig, rng, repair=None):
    """Real-valued GA over many independent cells at once: tournament-3
    selection, BLX-0.5 blend crossover, Gaussian mutation, elitism.

    lows/highs are (cells, genes) bounds; evaluate maps a (cells, pop,
    genes) array to (cells, pop) fitness (lower is better). Every cell uses
    the same random draws, scaled to its own bounds (common random
    numbers), so a cell's run does not depend on the other cells.
    Returns (best (cells, genes), best_fit (cells,), history
    (generations + 1, cells) of the best fitness per generation).
    """
    n_cells, n_genes = lows.shape
    n_pop, n_elite = config.population, config.elite_count
    n_child = n_pop - n_elite
    span = highs - lows
    lo, hi, step = lows[:, None, :], highs[:, None, :], span[:, None, :]
    pop = lo + step * rng.uniform(size=(n_pop, n_genes))
    if repair is not None:
        pop = repair(pop)
    fit = evaluate(pop)
    cells = np.arange(n_cells)[:, None]
    history = [fit.min(axis=1)]
    for _gen in range(config.generations):
        elite = np.argsort(fit, axis=1, kind="stable")[:, :n_elite]
        parents = []
        for _ in range(2):
            entrants = rng.integers(n_pop, size=(n_child, 3))
            # each cell's tournament winner: its fittest of the three entrants
            winner = np.argmin(fit[:, entrants], axis=2)
            parents.append(pop[cells, entrants[np.arange(n_child), winner]])
        pa, pb = parents
        cross = rng.uniform(size=(n_child, 1)) < config.crossover_rate
        u = rng.uniform(size=(n_child, n_genes))
        pmin = np.minimum(pa, pb)
        d = np.maximum(pa, pb) - pmin
        child = np.where(cross, pmin - 0.5 * d + 2.0 * d * u, pa)
        mutate = rng.uniform(size=(n_child, n_genes)) < config.mutation_rate
        z = rng.standard_normal(size=(n_child, n_genes))
        child = np.clip(child + mutate * config.mutation_scale * step * z, lo, hi)
        pop = np.concatenate([pop[cells, elite], child], axis=1)
        if repair is not None:
            pop = repair(pop)
        fit = evaluate(pop)
        history.append(fit.min(axis=1))
    best = np.argmin(fit, axis=1)
    return pop[cells[:, 0], best], fit[cells[:, 0], best], np.array(history)


def ga_invert(model: NetworkParameters, target_capacity: float,
              fixed: dict | None = None,
              config: GaConfig | None = None):
    """Search for a specimen whose predicted capacity matches the target.

    fixed pins a subset of (D, t, L, fy, fc); the rest evolve within the
    configured bounds. Returns (Specimen, fitness, per-generation best).
    """
    fixed = dict(fixed or {})
    config = config or GaConfig()
    unknown = set(fixed) - set(GENE_NAMES)
    if unknown:
        raise ConfigError(f"cannot fix unknown genes {sorted(unknown)}")
    if "D" in fixed and "t" in fixed and fixed["D"] <= 2 * fixed["t"]:
        raise ConfigError("fixed assignment violates D > 2t")
    free = [g for g in GENE_NAMES if g not in fixed]
    if not free:
        raise ConfigError("all genes fixed; nothing to optimize")
    lows = np.array([config.bounds[g][0] for g in free])
    highs = np.array([config.bounds[g][1] for g in free])
    predict = _design_predict(model)
    rng = np.random.default_rng(child_rng(config.seed, 0).integers(2**63))

    def decode(pop):
        cols = {g: pop[..., i] for i, g in enumerate(free)}
        for g in GENE_NAMES:
            if g in fixed:
                cols[g] = np.full(pop.shape[:-1], float(fixed[g]))
        return cols

    def repair(pop):
        cols = decode(pop)
        pop[..., free.index("t")] = _repair_thickness(cols["D"], cols["t"])
        return pop

    def evaluate(pop):
        cols = decode(pop[0])
        preds = predict(cols["D"], cols["t"], cols["L"], cols["fy"], cols["fc"])
        fit = np.abs(preds - target_capacity)
        fit[(cols["D"] <= 2 * cols["t"]) | ~np.isfinite(fit)] = np.inf
        return fit[None, :]

    best, fitness, history = _run_ga(evaluate, lows[None, :], highs[None, :], config,
                                     rng, repair=repair if "t" in free else None)
    cols = decode(best)
    s = Specimen(D=float(cols["D"][0]), t=float(cols["t"][0]), L=float(cols["L"][0]),
                 fy=float(cols["fy"][0]), fc=float(cols["fc"][0]),
                 N=float(target_capacity), source_id="ga")
    return s, float(fitness[0]), history[:, 0].tolist()


def thickness_for_steel_ratio(D, alpha_sc):
    """Closed-form wall thickness realizing a steel ratio As/Ac for given D."""
    r = 1.0 / np.sqrt(1.0 + alpha_sc)
    return D * (1.0 - r) / 2.0


@dataclass
class DependenceSample:
    fc: float
    alpha_sc: float
    specimen: Specimen | None
    pred_kn: float | None
    shap_fc: float | None
    shap_alpha: float | None
    valid: bool = True
    message: str = ""


def _alpha_feasible_D_range(alpha_sc, bounds):
    """D interval keeping t(alpha, D) inside the thickness bounds."""
    r = 1.0 / math.sqrt(1.0 + alpha_sc)
    t_lo, t_hi = bounds["t"]
    d_lo = 2.0 * t_lo / (1.0 - r)
    d_hi = 2.0 * t_hi / (1.0 - r)
    lo = max(d_lo, bounds["D"][0])
    hi = min(d_hi, bounds["D"][1])
    return (lo, hi) if lo < hi else None


def build_dependence_grid(model: NetworkParameters, target: float,
                          fc_grid=None, alpha_grid=None,
                          config: GaConfig | None = None,
                          shap_background_size: int = 32) -> list[DependenceSample]:
    """GA-realized samples over an (fc, alpha_sc) grid with Shapley values.

    Per cell, the wall thickness is solved from alpha_sc and D in closed
    form so the realized steel ratio is exact; D, L, fy evolve to meet the
    target capacity. Attributions are exact Shapley values over the five
    design coordinates (D, alpha_sc, L, fy, fc).
    """
    config = config or GaConfig()
    fc_grid = np.asarray(fc_grid if fc_grid is not None
                         else np.linspace(ENVELOPE["fc"][0], ENVELOPE["fc"][1], 20))
    alpha_grid = np.asarray(alpha_grid if alpha_grid is not None
                            else np.linspace(0.05, 0.5, 24))
    if fc_grid.size == 0 or alpha_grid.size == 0:
        raise ConfigError("grids must be nonempty")
    predict = _design_predict(model)
    cells = [(float(fc), float(alpha)) for fc in fc_grid for alpha in alpha_grid]
    d_ranges = [_alpha_feasible_D_range(alpha, config.bounds) for _fc, alpha in cells]
    feasible = [i for i, r in enumerate(d_ranges) if r is not None]
    samples = [DependenceSample(fc, alpha, None, None, None, None, valid=False,
                                message="steel ratio unrealizable in bounds")
               for fc, alpha in cells]
    if not feasible:
        return samples
    # D's range depends on alpha; L and fy share the envelope
    lows = np.array([[d_ranges[i][0], config.bounds["L"][0], config.bounds["fy"][0]]
                     for i in feasible])
    highs = np.array([[d_ranges[i][1], config.bounds["L"][1], config.bounds["fy"][1]]
                      for i in feasible])
    fc = np.array([cells[i][0] for i in feasible])
    alpha = np.array([cells[i][1] for i in feasible])

    def design(genes):
        """Predicted capacity and wall thickness of (cells, n, 3) D/L/fy genes."""
        D, L, fy = genes[..., 0], genes[..., 1], genes[..., 2]
        t = thickness_for_steel_ratio(D, alpha[:, None])
        pred = predict(D.ravel(), t.ravel(), L.ravel(), fy.ravel(),
                       np.broadcast_to(fc[:, None], D.shape).ravel())
        return pred.reshape(D.shape), t

    rng = np.random.default_rng(child_rng(config.seed, 1).integers(2**63))
    best, _fit, _history = _run_ga(lambda pop: np.abs(design(pop)[0] - target),
                                   lows, highs, config, rng)
    preds, thickness = design(best[:, None, :])
    for k, i in enumerate(feasible):
        D0, L0, fy0 = (float(v) for v in best[k])
        pred = float(preds[k, 0])
        s = Specimen(D=D0, t=float(thickness[k, 0]), L=L0, fy=fy0, fc=cells[i][0],
                     N=pred, source_id=f"dep-{i + 1}")
        samples[i] = DependenceSample(cells[i][0], cells[i][1], s, pred, None, None)

    _attach_shapley(model, samples, config, shap_background_size)
    return samples


def _attach_shapley(model, samples, config, background_size):
    """Exact Shapley over design coordinates using the realized samples
    themselves as the interventional background."""
    valid = [s for s in samples if s.valid]
    if not valid:
        return
    coords = np.array([[s.specimen.D, s.alpha_sc, s.specimen.L,
                        s.specimen.fy, s.fc] for s in valid])
    rng = np.random.default_rng(child_rng(config.seed, 0).integers(2**63))
    take = min(background_size, len(coords))
    bg = coords[rng.choice(len(coords), size=take, replace=False)]
    predict = _design_predict(model)

    def design_fn(Z):
        D, alpha, L, fy, fc = (Z[:, i] for i in range(5))
        t = _repair_thickness(D, thickness_for_steel_ratio(D, alpha))
        return predict(D, t, L, fy, fc)

    phi, _phi0 = shapley_exact(design_fn, coords, bg)
    for s, row in zip(valid, phi):
        s.shap_fc = float(row[4])
        s.shap_alpha = float(row[1])


def optimal_alpha_curve(samples, min_valid: int = 3):
    """Per-fc steel ratio maximizing the alpha_sc attribution.

    Ties break toward the smaller ratio; fc columns with fewer than
    min_valid valid cells are omitted. Returns [(fc, alpha_opt), ...]
    sorted by fc.
    """
    by_fc: dict[float, list] = {}
    for s in samples:
        if s.valid and s.shap_alpha is not None:
            by_fc.setdefault(s.fc, []).append(s)
    curve = []
    for fc in sorted(by_fc):
        cells = by_fc[fc]
        if len(cells) < min_valid:
            continue
        best = min(cells, key=lambda c: (-c.shap_alpha, c.alpha_sc))
        curve.append((fc, best.alpha_sc))
    return curve

"""Network explanations: the steel-ratio/concrete-strength dependence
study, realized by a genetic algorithm, and Shapley attributions."""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .data import ENVELOPE, Specimen
from .errors import ConfigError
from .features import design_matrix
from .network import NetworkParameters, predict_rows
from .seeding import child_rng
from .trees.shapley import shapley_exact

# GA operators: BLX-0.5 crossover rate, per-gene Gaussian mutation rate and
# scale (a fraction of the gene's range), and the elites kept each generation
CROSSOVER_RATE = 0.9
MUTATION_RATE = 0.1
MUTATION_SCALE = 0.1
ELITE_COUNT = 2
# an fc column of the guidance curve needs this many valid cells
MIN_VALID_CELLS = 3


@dataclass(frozen=True)
class GaConfig:
    population: int = 60
    generations: int = 100
    seed: int = 0

    def __post_init__(self):
        if self.population < 4:
            raise ConfigError("population must be >= 4")
        if self.generations < 0:
            raise ConfigError(f"generations must be >= 0, got {self.generations}")

    @property
    def bounds(self) -> dict:
        """Every gene evolves within the experimental envelope."""
        return ENVELOPE


def _design_predict(model: NetworkParameters):
    names = list(model.feature_order)

    def fn(D, t, L, fy, fc):
        return predict_rows(model, design_matrix(D, t, L, fy, fc, names))

    return fn


def _run_ga(evaluate, lows, highs, config: GaConfig, rng):
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
    n_pop = config.population
    n_child = n_pop - ELITE_COUNT
    span = highs - lows
    lo, hi, step = lows[:, None, :], highs[:, None, :], span[:, None, :]
    pop = lo + step * rng.uniform(size=(n_pop, n_genes))
    fit = evaluate(pop)
    cells = np.arange(n_cells)[:, None]
    history = [fit.min(axis=1)]
    for _gen in range(config.generations):
        elite = np.argsort(fit, axis=1, kind="stable")[:, :ELITE_COUNT]
        parents = []
        for _ in range(2):
            entrants = rng.integers(n_pop, size=(n_child, 3))
            # each cell's tournament winner: its fittest of the three entrants
            winner = np.argmin(fit[:, entrants], axis=2)
            parents.append(pop[cells, entrants[np.arange(n_child), winner]])
        pa, pb = parents
        cross = rng.uniform(size=(n_child, 1)) < CROSSOVER_RATE
        u = rng.uniform(size=(n_child, n_genes))
        pmin = np.minimum(pa, pb)
        d = np.maximum(pa, pb) - pmin
        child = np.where(cross, pmin - 0.5 * d + 2.0 * d * u, pa)
        mutate = rng.uniform(size=(n_child, n_genes)) < MUTATION_RATE
        z = rng.standard_normal(size=(n_child, n_genes))
        child = np.clip(child + mutate * MUTATION_SCALE * step * z, lo, hi)
        pop = np.concatenate([pop[cells, elite], child], axis=1)
        fit = evaluate(pop)
        history.append(fit.min(axis=1))
    best = np.argmin(fit, axis=1)
    return pop[cells[:, 0], best], fit[cells[:, 0], best], np.array(history)


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
    valid: bool = True   # False where the steel ratio is unrealizable in the envelope


def _alpha_feasible_D_range(alpha_sc):
    """D interval keeping t(alpha, D) inside the envelope's thickness range."""
    r = 1.0 / math.sqrt(1.0 + alpha_sc)
    t_lo, t_hi = ENVELOPE["t"]
    lo = max(2.0 * t_lo / (1.0 - r), ENVELOPE["D"][0])
    hi = min(2.0 * t_hi / (1.0 - r), ENVELOPE["D"][1])
    return (lo, hi) if lo < hi else None


def build_dependence_grid(model: NetworkParameters, target: float, fc_grid, alpha_grid,
                          config: GaConfig,
                          shap_background_size: int = 32) -> list[DependenceSample]:
    """GA-realized samples over an (fc, alpha_sc) grid with Shapley values.

    Per cell, the wall thickness is solved from alpha_sc and D in closed
    form so the realized steel ratio is exact; D, L, fy evolve to meet the
    target capacity. Attributions are exact Shapley values over the five
    design coordinates (D, alpha_sc, L, fy, fc).
    """
    if shap_background_size < 1:
        raise ConfigError(f"shap_background_size must be >= 1, got {shap_background_size}")
    fc_grid, alpha_grid = np.asarray(fc_grid), np.asarray(alpha_grid)
    if fc_grid.size == 0 or alpha_grid.size == 0:
        raise ConfigError("grids must be nonempty")
    predict = _design_predict(model)
    cells = [(float(fc), float(alpha)) for fc in fc_grid for alpha in alpha_grid]
    d_ranges = [_alpha_feasible_D_range(alpha) for _fc, alpha in cells]
    feasible = [i for i, r in enumerate(d_ranges) if r is not None]
    samples = [DependenceSample(fc, alpha, None, None, None, None, valid=False)
               for fc, alpha in cells]
    if not feasible:
        return samples
    # D's range depends on alpha; L and fy share the envelope
    lows = np.array([[d_ranges[i][0], ENVELOPE["L"][0], ENVELOPE["fy"][0]]
                     for i in feasible])
    highs = np.array([[d_ranges[i][1], ENVELOPE["L"][1], ENVELOPE["fy"][1]]
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
        # keep the wall thickness below the D > 2t boundary
        t = np.minimum(thickness_for_steel_ratio(D, alpha), 0.499 * D)
        return predict(D, t, L, fy, fc)

    phi, _phi0 = shapley_exact(design_fn, coords, bg)
    for s, row in zip(valid, phi):
        s.shap_fc = float(row[4])
        s.shap_alpha = float(row[1])


def optimal_alpha_curve(samples):
    """Per-fc steel ratio maximizing the alpha_sc attribution.

    Ties break toward the smaller ratio; fc columns with fewer than
    MIN_VALID_CELLS valid cells are omitted. Returns [(fc, alpha_opt), ...]
    sorted by fc.
    """
    by_fc: dict[float, list] = {}
    for s in samples:
        if s.valid and s.shap_alpha is not None:
            by_fc.setdefault(s.fc, []).append(s)
    curve = []
    for fc in sorted(by_fc):
        cells = by_fc[fc]
        if len(cells) < MIN_VALID_CELLS:
            continue
        best = min(cells, key=lambda c: (-c.shap_alpha, c.alpha_sc))
        curve.append((fc, best.alpha_sc))
    return curve

"""Network explanations: the steel-ratio/concrete-strength dependence
study, realized by a genetic algorithm, and Shapley attributions."""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data import ENVELOPE
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
# GA cells that one model call scores; a multiple of 4, as OpenBLAS gives a
# row the same output only while its position in the batch keeps its remainder mod 4
GA_CELL_BLOCK = 16


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


def _design_map(model: NetworkParameters):
    """The map (D, alpha_sc, L, fy, fc) -> (predicted capacity, t) over
    parallel arrays. t realizes alpha_sc exactly, and t/D = (1 - r)/2 stays
    below 1/2 for every finite alpha_sc, so D > 2t always holds."""
    names = list(model.feature_order)

    def design(D, alpha_sc, L, fy, fc):
        t = thickness_for_steel_ratio(D, alpha_sc)
        return predict_rows(model, design_matrix(D, t, L, fy, fc, names)), t

    return design


@dataclass
class DependenceGrid:
    """The dependence study, one array entry per (fc, alpha_sc) cell, fc
    outer and alpha_sc inner. A cell is valid where its steel ratio is
    realizable in the envelope; every field after valid is NaN elsewhere."""
    fc: np.ndarray
    alpha_sc: np.ndarray
    valid: np.ndarray
    D: np.ndarray
    t: np.ndarray
    L: np.ndarray
    fy: np.ndarray
    pred_kn: np.ndarray
    shap_fc: np.ndarray
    shap_alpha: np.ndarray

    def __len__(self) -> int:
        return len(self.fc)


def _alpha_feasible_D_range(alpha_sc):
    """(lo, hi): the D interval keeping t(alpha, D) inside the envelope's
    thickness range, per steel ratio; it is empty where lo >= hi."""
    r = 1.0 / np.sqrt(1.0 + np.asarray(alpha_sc, dtype=float))
    t_lo, t_hi = ENVELOPE["t"]
    return (np.maximum(2.0 * t_lo / (1.0 - r), ENVELOPE["D"][0]),
            np.minimum(2.0 * t_hi / (1.0 - r), ENVELOPE["D"][1]))


def build_dependence_grid(model: NetworkParameters, target: float, fc_grid, alpha_grid,
                          config: GaConfig, shap_background_size: int = 32) -> DependenceGrid:
    """GA-realized cells over an (fc, alpha_sc) grid with Shapley values.

    Per cell, the wall thickness is solved from alpha_sc and D in closed
    form so the realized steel ratio is exact; D, L, fy evolve to meet the
    target capacity. Attributions are exact Shapley values over the five
    design coordinates (D, alpha_sc, L, fy, fc), with the realized cells
    themselves as the interventional background.
    """
    if shap_background_size < 1:
        raise ConfigError(f"shap_background_size must be >= 1, got {shap_background_size}")
    fc_grid, alpha_grid = np.asarray(fc_grid, dtype=float), np.asarray(alpha_grid, dtype=float)
    if fc_grid.size == 0 or alpha_grid.size == 0:
        raise ConfigError("grids must be nonempty")
    fc_all, alpha_all = (a.ravel() for a in np.meshgrid(fc_grid, alpha_grid, indexing="ij"))
    d_lo, d_hi = _alpha_feasible_D_range(alpha_all)
    valid = d_lo < d_hi
    columns = np.full((7, len(valid)), np.nan)  # D, t, L, fy, pred_kn, shap_fc, shap_alpha
    if valid.any():
        columns[:, valid] = _realize(_design_map(model), target, fc_all[valid],
                                     alpha_all[valid], d_lo[valid], d_hi[valid], config,
                                     shap_background_size)
    return DependenceGrid(fc_all, alpha_all, valid, *columns)


def _realize(design, target, fc, alpha, d_lo, d_hi, config, background_size):
    """D, t, L, fy, predicted capacity and the fc and alpha_sc attributions
    of feasible cells, each an array over the cells."""
    n = len(fc)
    # D's range depends on alpha; L and fy share the envelope
    lows = np.column_stack([d_lo, np.full(n, ENVELOPE["L"][0]), np.full(n, ENVELOPE["fy"][0])])
    highs = np.column_stack([d_hi, np.full(n, ENVELOPE["L"][1]), np.full(n, ENVELOPE["fy"][1])])

    def fitness(genes):
        """|capacity - target| of (cells, pop, 3) D/L/fy genes, GA_CELL_BLOCK cells a call."""
        out = np.empty(genes.shape[:2])
        for lo in range(0, n, GA_CELL_BLOCK):
            cells = slice(lo, lo + GA_CELL_BLOCK)
            D, L, fy = (genes[cells, :, k] for k in range(3))
            a, f = (np.broadcast_to(v[cells, None], D.shape) for v in (alpha, fc))
            pred, _t = design(*(x.ravel() for x in (D, a, L, fy, f)))
            np.abs(pred.reshape(D.shape) - target, out=out[cells])
        return out

    rng = np.random.default_rng(child_rng(config.seed, 1).integers(2**63))
    best, _fit, _history = _run_ga(fitness, lows, highs, config, rng)
    D, L, fy = best.T
    pred, t = design(D, alpha, L, fy, fc)

    coords = np.column_stack([D, alpha, L, fy, fc])
    rng = np.random.default_rng(child_rng(config.seed, 0).integers(2**63))
    bg = coords[rng.choice(n, size=min(background_size, n), replace=False)]
    phi, _phi0 = shapley_exact(lambda Z: design(*Z.T)[0], coords, bg)
    return D, t, L, fy, pred, phi[:, 4], phi[:, 1]


def optimal_alpha_curve(grid: DependenceGrid):
    """Per-fc steel ratio maximizing the alpha_sc attribution.

    Only valid cells with a finite attribution count. Ties break toward
    the smaller ratio; fc columns with fewer than MIN_VALID_CELLS such
    cells are omitted. Returns [(fc, alpha_opt), ...] sorted by fc.
    """
    usable = grid.valid & np.isfinite(grid.shap_alpha)
    curve = []
    for fc in np.unique(grid.fc[usable]):
        cells = np.flatnonzero(usable & (grid.fc == fc))
        if len(cells) < MIN_VALID_CELLS:
            continue
        best = cells[np.lexsort((grid.alpha_sc[cells], -grid.shap_alpha[cells]))[0]]
        curve.append((float(fc), float(grid.alpha_sc[best])))
    return curve

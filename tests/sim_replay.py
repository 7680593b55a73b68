"""An oracle for ``simulate``'s drained stop: the same schedule, each step
decided on its own. A step without demand on a drained state
(``SimState.drained``), before the peak end too, moves nothing, so it
counts the step and returns the start-of-step accumulation and no outflow
or completed trip without calling ``SimState.step``; every other step calls
it. Turn ratios are refreshed as ``simulate`` refreshes them, except at a
drained step past warmup_s + peak_s. Where ``simulate`` stops once, at the
first drained step past the peak, and adds the frozen accumulation from
there on, the replay checks the state again at every step."""

import numpy as np

from lcftraffic.simulate import (SimRecord, SimState, _window_stats,
                                 initial_turn_ratios, network_stats,
                                 update_turn_ratios)


def replay(net, scenario, cfg) -> SimRecord:
    sim_net = net.with_bus_lanes(scenario.bus_links)
    od = scenario.od
    rates = np.asarray(od.rates, dtype=float) * scenario.scale
    dest_ids = tuple(sorted({d for _, d in od.pairs}))
    state = SimState(sim_net, cfg, list(od.pairs), dest_ids)
    ratios = initial_turn_ratios(sim_net, dest_ids)
    z, spw, n_windows = sim_net.n_links, cfg.steps_per_window, cfg.n_windows
    len_km, vff = sim_net.index.length_m / 1000.0, sim_net.index.vff_kmh
    speeds, acc, outflow = (np.zeros((n_windows, z)) for _ in range(3))
    completed = np.zeros(n_windows)
    sum_u, sum_x, window_completed = np.zeros(z), np.zeros(z), 0.0
    last_speeds = vff
    turn_every = max(1, int(round(cfg.turn_update_s / cfg.step_s)))
    ramp_s = max(cfg.warmup_s * od.ramp_fraction, cfg.step_s)
    for k in range(int(cfg.total_s // cfg.step_s)):
        t_s = k * cfg.step_s
        past_peak = t_s >= cfg.warmup_s + cfg.peak_s
        if k > 0 and k % turn_every == 0 and not (past_peak and state.drained()):
            ratios = update_turn_ratios(sim_net, last_speeds, ratios, dest_ids, cfg)
        factor = (min(t_s / ramp_s, 1.0) if t_s < cfg.warmup_s
                  else 0.0 if past_peak else 1.0)
        demand = rates / 3600.0 * cfg.step_s * factor
        if not np.any(demand) and state.drained():
            out = {"outflow": np.zeros(z), "accumulation": state.accumulation(),
                   "completed": np.zeros(z)}
            state.step_no += 1
        else:
            out = state.step(demand, ratios)
        sum_u += out["outflow"]
        sum_x += out["accumulation"]
        window_completed += float(out["completed"].sum())
        if (k + 1) % spw == 0:
            wi = k // spw
            last_speeds = speeds[wi] = _window_stats(len_km, vff, cfg, sum_u, sum_x)
            acc[wi], outflow[wi], completed[wi] = sum_x / spw, sum_u, window_completed
            sum_u[:], sum_x[:], window_completed = 0.0, 0.0, 0.0
    balance = state.injected_total - (state.in_network() + state.completed_total)
    mean_speed, production, total_acc = network_stats(speeds, acc)
    return SimRecord(link_ids=sim_net.link_ids(), window_s=cfg.window_s,
                     step_s=cfg.step_s, speeds=speeds, accumulation=acc,
                     outflow=outflow, mean_speed=mean_speed,
                     production=production, total_accumulation=total_acc,
                     completed=completed, balance_error=abs(balance))

#include "replay/kernels.hh"

#include <algorithm>
#include <stdexcept>
#include <string>

#include "replay/engine.hh"

namespace lsim::replay::kernels
{

void
AccumulatorBank::resize(std::size_t n)
{
    active.assign(n, 0.0);
    unctrl_idle.assign(n, 0.0);
    sleep.assign(n, 0.0);
    transitions.assign(n, 0.0);
}

energy::CycleCounts
AccumulatorBank::counts(std::size_t lane) const
{
    energy::CycleCounts c;
    c.active = active.at(lane);
    c.unctrl_idle = unctrl_idle.at(lane);
    c.sleep = sleep.at(lane);
    c.transitions = transitions.at(lane);
    return c;
}

std::size_t
KernelBatch::addLane(const sleep::KernelSpec &spec)
{
    using Kind = sleep::KernelSpec::Kind;
    if (spec.kind != kind_)
        throw std::logic_error("KernelBatch::addLane: spec '" +
                               spec.key() +
                               "' does not match the batch kind");
    switch (kind_) {
    case Kind::AlwaysActive:
    case Kind::MaxSleep:
    case Kind::NoOverhead:
        break;
    case Kind::Gradual: {
        if (spec.slices == 0)
            throw std::logic_error(
                "KernelBatch::addLane: gradual slice count 0");
        const double n = static_cast<double>(spec.slices);
        slices_.push_back(n);
        // Saturated-regime constants, spelled exactly like
        // GradualSleepController::doIdleRun at m == n.
        grad_tri_.push_back(n * (n - 1.0) / 2.0);
        grad_ui_.push_back((n * (n - 1.0) / 2.0) / n);
        grad_max_n_ = std::max(grad_max_n_, n);
        break;
    }
    case Kind::Timeout:
        timeouts_.push_back(spec.timeout);
        break;
    case Kind::Oracle:
        breakevens_.push_back(spec.breakeven);
        break;
    case Kind::WeightedGradual: {
        // The asleep-after prefix sums, accumulated exactly as the
        // WeightedGradualSleepController constructor does (the
        // doIdleRuns arithmetic reads them).
        std::vector<double> prefix;
        prefix.reserve(spec.weights.size());
        double total = 0.0;
        for (double w : spec.weights) {
            total += w;
            prefix.push_back(total);
        }
        if (prefix.empty())
            throw std::logic_error("KernelBatch::addLane: "
                                   "weighted-gradual without weights");
        prefix.back() = 1.0; // exact despite rounding, as in the ctor
        weight_sets_.push_back(spec.weights);
        prefix_sets_.push_back(std::move(prefix));
        break;
    }
    case Kind::None:
        throw std::logic_error(
            "KernelBatch::addLane: Kind::None has no kernel");
    }
    return lanes_++;
}

namespace
{

/**
 * The per-interval lane loops below mirror each controller's
 * doIdleRuns() expression for expression — including intermediate
 * rounding — so each lane's accumulator receives the identical
 * floating-point operation sequence the virtual path would produce.
 */

void
runAlwaysActive(const IntervalSet &set, std::size_t begin,
                std::size_t end, AccumulatorBank &bank)
{
    double *__restrict ui = bank.unctrl_idle.data();
    const std::size_t lanes = bank.lanes();
    for (std::size_t i = begin; i < end; ++i) {
        // unctrl_idle += double(len) * double(count)
        const double add = static_cast<double>(set.lengths[i]) *
                           static_cast<double>(set.counts[i]);
        for (std::size_t u = 0; u < lanes; ++u)
            ui[u] += add;
    }
}

void
runMaxSleep(const IntervalSet &set, std::size_t begin,
            std::size_t end, AccumulatorBank &bank)
{
    double *__restrict tr = bank.transitions.data();
    double *__restrict sl = bank.sleep.data();
    const std::size_t lanes = bank.lanes();
    for (std::size_t i = begin; i < end; ++i) {
        // transitions += double(count); sleep += len * count
        const double n = static_cast<double>(set.counts[i]);
        const double add = static_cast<double>(set.lengths[i]) *
                           static_cast<double>(set.counts[i]);
        for (std::size_t u = 0; u < lanes; ++u) {
            tr[u] += n;
            sl[u] += add;
        }
    }
}

void
runNoOverhead(const IntervalSet &set, std::size_t begin,
              std::size_t end, AccumulatorBank &bank)
{
    double *__restrict sl = bank.sleep.data();
    const std::size_t lanes = bank.lanes();
    for (std::size_t i = begin; i < end; ++i) {
        const double add = static_cast<double>(set.lengths[i]) *
                           static_cast<double>(set.counts[i]);
        for (std::size_t u = 0; u < lanes; ++u)
            sl[u] += add;
    }
}

void
runGradual(const std::vector<double> &slices,
           const std::vector<double> &grad_tri,
           const std::vector<double> &grad_ui, double max_n,
           const IntervalSet &set, std::size_t begin,
           std::size_t end, AccumulatorBank &bank)
{
    const double *__restrict sl = slices.data();
    const double *__restrict tri = grad_tri.data();
    const double *__restrict uic = grad_ui.data();
    double *__restrict tr = bank.transitions.data();
    double *__restrict ui = bank.unctrl_idle.data();
    double *__restrict sp = bank.sleep.data();
    const std::size_t lanes = bank.lanes();

    // Once length >= n for every lane, each run saturates the shift
    // register (m == n): the transition and unctrl_idle terms become
    // lane constants, leaving one division per (interval, lane).
    // Lengths ascend, so that regime is a suffix of the range.
    const std::size_t sat = static_cast<std::size_t>(
        std::lower_bound(set.lengths.begin() + begin,
                         set.lengths.begin() + end, max_n,
                         [](Cycle len, double threshold) {
                             return static_cast<double>(len) <
                                    threshold;
                         }) -
        set.lengths.begin());

    // Mixed regime: the full doIdleRun closed form per lane.
    for (std::size_t i = begin; i < sat; ++i) {
        const double length = static_cast<double>(set.lengths[i]);
        const double cnt = static_cast<double>(set.counts[i]);
        // Lane-independent SoA updates: this loop vectorizes across
        // configurations while each lane keeps the scalar op order.
        for (std::size_t u = 0; u < lanes; ++u) {
            const double n = sl[u];
            const double m = std::min(length, n);
            // doIdleRun's closed-form per-run contributions.
            const double run_tr = m / n;
            const double run_ui =
                (m * (m - 1.0) / 2.0) / n + (n - m) / n * length;
            const double run_sp =
                (m * length - m * (m - 1.0) / 2.0) / n;
            // doIdleRuns' before/(after - before)*count rescaling,
            // intermediate roundings included.
            const double t0 = tr[u] + run_tr;
            tr[u] = tr[u] + (t0 - tr[u]) * cnt;
            const double u0 = ui[u] + run_ui;
            ui[u] = ui[u] + (u0 - ui[u]) * cnt;
            const double s0 = sp[u] + run_sp;
            sp[u] = sp[u] + (s0 - sp[u]) * cnt;
        }
    }

    // Saturated regime: m == n exactly, so run_tr == n/n == 1.0,
    // run_ui == (n*(n-1)/2)/n + 0.0 == the precomputed lane
    // constant, and only run_sp still divides.
    for (std::size_t i = sat; i < end; ++i) {
        const double length = static_cast<double>(set.lengths[i]);
        const double cnt = static_cast<double>(set.counts[i]);
        // Per-field lane loops keep each loop narrow enough for the
        // vectorizer; each field's op sequence is unchanged.
        for (std::size_t u = 0; u < lanes; ++u) {
            const double trv = tr[u];
            const double t0 = trv + 1.0;
            tr[u] = trv + (t0 - trv) * cnt;
        }
        for (std::size_t u = 0; u < lanes; ++u) {
            const double uiv = ui[u];
            const double u0 = uiv + uic[u];
            ui[u] = uiv + (u0 - uiv) * cnt;
        }
        for (std::size_t u = 0; u < lanes; ++u) {
            const double n = sl[u];
            const double run_sp = (n * length - tri[u]) / n;
            const double spv = sp[u];
            const double s0 = spv + run_sp;
            sp[u] = spv + (s0 - spv) * cnt;
        }
    }
}

void
runWeightedGradual(const std::vector<std::vector<double>> &weights,
                   const std::vector<std::vector<double>> &prefixes,
                   const IntervalSet &set, std::size_t begin,
                   std::size_t end, AccumulatorBank &bank)
{
    for (std::size_t u = 0; u < bank.lanes(); ++u) {
        const std::vector<double> &w = weights[u];
        const std::vector<double> &pre = prefixes[u];
        double tr = bank.transitions[u];
        double ui = bank.unctrl_idle[u];
        double sp = bank.sleep[u];
        for (std::size_t i = begin; i < end; ++i) {
            const Cycle len = set.lengths[i];
            const double n = static_cast<double>(set.counts[i]);
            const double length = static_cast<double>(len);
            const std::size_t m = std::min<std::size_t>(
                w.size(), static_cast<std::size_t>(len));
            double trans = 0.0, uival = 0.0, sleep = 0.0;
            for (std::size_t j = 0; j < m; ++j) {
                const double wj = w[j];
                trans += wj;
                uival += wj * static_cast<double>(j);
                sleep += wj * (length - static_cast<double>(j));
            }
            const double awake = 1.0 - (m > 0 ? pre[m - 1] : 0.0);
            uival += awake * length;
            tr += trans * n;
            ui += uival * n;
            sp += sleep * n;
        }
        bank.transitions[u] = tr;
        bank.unctrl_idle[u] = ui;
        bank.sleep[u] = sp;
    }
}

void
runTimeout(const std::vector<Cycle> &timeouts, const IntervalSet &set,
           std::size_t begin, std::size_t end, AccumulatorBank &bank)
{
    const auto first = set.lengths.begin();
    for (std::size_t u = 0; u < bank.lanes(); ++u) {
        const Cycle to = timeouts[u];
        const double wait = static_cast<double>(to);
        // Lengths ascend, so "len > timeout" splits the range once.
        const std::size_t split = static_cast<std::size_t>(
            std::upper_bound(first + begin, first + end, to) - first);
        double ui = bank.unctrl_idle[u];
        double tr = bank.transitions[u];
        double sp = bank.sleep[u];
        // len <= timeout: the whole run idles uncontrolled.
        for (std::size_t i = begin; i < split; ++i)
            ui += static_cast<double>(set.lengths[i]) *
                  static_cast<double>(set.counts[i]);
        // len > timeout: wait, one transition, sleep the remainder.
        for (std::size_t i = split; i < end; ++i) {
            const double n = static_cast<double>(set.counts[i]);
            const double length =
                static_cast<double>(set.lengths[i]);
            ui += wait * n;
            tr += n;
            sp += (length - wait) * n;
        }
        bank.unctrl_idle[u] = ui;
        bank.transitions[u] = tr;
        bank.sleep[u] = sp;
    }
}

void
runOracle(const std::vector<double> &breakevens,
          const IntervalSet &set, std::size_t begin, std::size_t end,
          AccumulatorBank &bank)
{
    const auto first = set.lengths.begin();
    for (std::size_t u = 0; u < bank.lanes(); ++u) {
        const double be = breakevens[u];
        // First length with double(len) >= breakeven (ascending).
        const std::size_t split = static_cast<std::size_t>(
            std::lower_bound(first + begin, first + end, be,
                             [](Cycle len, double threshold) {
                                 return static_cast<double>(len) <
                                        threshold;
                             }) -
            first);
        double ui = bank.unctrl_idle[u];
        double tr = bank.transitions[u];
        double sp = bank.sleep[u];
        for (std::size_t i = begin; i < split; ++i)
            ui += static_cast<double>(set.lengths[i]) *
                  static_cast<double>(set.counts[i]);
        for (std::size_t i = split; i < end; ++i) {
            const double n = static_cast<double>(set.counts[i]);
            tr += n;
            sp += static_cast<double>(set.lengths[i]) * n;
        }
        bank.unctrl_idle[u] = ui;
        bank.transitions[u] = tr;
        bank.sleep[u] = sp;
    }
}

} // namespace

void
KernelBatch::run(const IntervalSet &set, std::size_t begin,
                 std::size_t end, bool with_active,
                 AccumulatorBank &bank) const
{
    using Kind = sleep::KernelSpec::Kind;
    if (bank.lanes() != lanes_)
        throw std::logic_error(
            "KernelBatch::run: bank has " +
            std::to_string(bank.lanes()) + " lanes, batch " +
            std::to_string(lanes_));
    // The scalar call sequence opens with the active total (skipped
    // when zero), exactly like MultiPointReplay::replayRange.
    if (with_active && set.active_cycles > 0) {
        const double active = static_cast<double>(set.active_cycles);
        for (std::size_t u = 0; u < lanes_; ++u)
            bank.active[u] += active;
    }
    switch (kind_) {
    case Kind::AlwaysActive:
        runAlwaysActive(set, begin, end, bank);
        return;
    case Kind::MaxSleep:
        runMaxSleep(set, begin, end, bank);
        return;
    case Kind::NoOverhead:
        runNoOverhead(set, begin, end, bank);
        return;
    case Kind::Gradual:
        runGradual(slices_, grad_tri_, grad_ui_, grad_max_n_, set,
                   begin, end, bank);
        return;
    case Kind::WeightedGradual:
        runWeightedGradual(weight_sets_, prefix_sets_, set, begin,
                           end, bank);
        return;
    case Kind::Timeout:
        runTimeout(timeouts_, set, begin, end, bank);
        return;
    case Kind::Oracle:
        runOracle(breakevens_, set, begin, end, bank);
        return;
    case Kind::None:
        break;
    }
    throw std::logic_error("KernelBatch::run: bad kind " +
                           std::to_string(static_cast<int>(kind_)));
}

} // namespace lsim::replay::kernels

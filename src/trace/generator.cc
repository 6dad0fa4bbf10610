#include "trace/generator.hh"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <string>

#include "common/logging.hh"

namespace lsim::trace
{

TraceGenerator::TraceGenerator(const WorkloadProfile &profile,
                               std::uint64_t seed)
    : profile_(profile), rng_(seed ^ 0xa5a5'5a5a'1234'9876ull)
{
    profile_.validate();
    buildProgram();
}

TraceGenerator::StaticInst
TraceGenerator::makeStaticInst(OpClass cls)
{
    StaticInst si{};
    si.cls = cls;
    si.mem_site = -1;
    const bool fp = isFpClass(cls);
    switch (cls) {
      case OpClass::Load:
        si.dst = pickDest(false);
        si.src1 = pickSource(false); // address base register
        si.src2 = kNoReg;
        si.mem_site = static_cast<std::int32_t>(mem_sites_.size());
        mem_sites_.push_back(makeMemSite());
        break;
      case OpClass::Store:
        si.dst = kNoReg;
        si.src1 = pickSource(false); // address base register
        si.src2 = pickSource(false); // data register
        si.mem_site = static_cast<std::int32_t>(mem_sites_.size());
        mem_sites_.push_back(makeMemSite());
        break;
      default:
        si.dst = pickDest(fp);
        si.src1 = pickSource(fp);
        si.src2 = pickSource(fp);
        break;
    }
    if (si.dst != kNoReg) {
        auto &recent = fp ? recent_fp_ : recent_int_;
        recent.push_back(si.dst);
    }
    return si;
}

std::int16_t
TraceGenerator::pickSource(bool fp)
{
    auto &recent = fp ? recent_fp_ : recent_int_;
    const std::int16_t file_base = fp ? kNumLogicalRegs : 0;
    if (!recent.empty() && rng_.chance(profile_.dep_density)) {
        // Producer at a geometric static distance: larger
        // dep_distance_p means closer producers (tighter chains).
        const std::uint64_t dist =
            rng_.geometric(profile_.dep_distance_p);
        const std::size_t idx =
            recent.size() >= dist ? recent.size() - dist : 0;
        return recent[idx];
    }
    // Long-lived global value.
    return file_base + static_cast<std::int16_t>(rng_.below(8));
}

std::int16_t
TraceGenerator::pickDest(bool fp)
{
    const std::int16_t file_base = fp ? kNumLogicalRegs : 0;
    // Destinations come from the non-global registers 8..31.
    return file_base + 8 + static_cast<std::int16_t>(rng_.below(24));
}

void
TraceGenerator::buildRegionPools()
{
    const Addr ws = profile_.working_set;
    // A handful of shared arrays: many static sites traverse the
    // same data, as in real programs. Pool footprint stays well
    // inside the working set.
    const unsigned n_res = 8;
    for (unsigned i = 0; i < n_res; ++i) {
        Region r;
        r.size = Addr{4096} << rng_.below(2); // 4-8 KB
        r.base = kDataBase + rng_.below(ws / 4096) * 4096 % ws;
        resident_pool_.push_back(r);
    }
    const unsigned n_stream = 4;
    for (unsigned i = 0; i < n_stream; ++i) {
        Region r;
        r.size = std::clamp(ws / 4, Addr{64 * 1024}, ws);
        r.base = kDataBase + rng_.below(ws / 4096) * 4096 % ws;
        stream_pool_.push_back(r);
    }
}

std::size_t
TraceGenerator::apportion(const double *fracs, std::size_t n,
                          std::vector<double> &assigned)
{
    if (assigned.size() != n)
        assigned.assign(n, 0.0);
    double total = 0.0;
    for (std::size_t i = 0; i < n; ++i)
        total += assigned[i];
    std::size_t best = 0;
    double best_deficit = -1e300;
    for (std::size_t i = 0; i < n; ++i) {
        const double deficit = fracs[i] * (total + 1.0) - assigned[i];
        if (deficit > best_deficit) {
            best_deficit = deficit;
            best = i;
        }
    }
    assigned[best] += 1.0;
    return best;
}

TraceGenerator::MemSite
TraceGenerator::makeMemSite()
{
    MemSite site{};
    const Addr ws = profile_.working_set;
    const double fracs[4] = {
        profile_.local_frac,
        profile_.stream_frac,
        profile_.irregular_frac,
        1.0 - profile_.local_frac - profile_.stream_frac -
            profile_.irregular_frac,
    };
    const std::size_t kind = apportion(fracs, 4, mem_assigned_);
    if (kind == 0) {
        // Stack/locals: a 256-byte window within a shared 16 KB
        // stack frame region — spills and locals that essentially
        // always hit the L1.
        site.kind = SiteKind::Local;
        site.region = 256;
        site.base = kStackBase + rng_.below(16 * 1024 / 256) * 256;
        site.stride = 8;
        site.pos = 0;
    } else if (kind == 1) {
        // Streaming sweep: full-line stride over a large shared
        // slice; every access touches a new line (misses L1,
        // L2-resident while the slice fits the L2).
        const Region &r = stream_pool_[rng_.below(stream_pool_.size())];
        site.kind = SiteKind::Streaming;
        site.stride = 64;
        site.region = r.size;
        site.base = r.base;
        site.pos = rng_.below(site.region) & ~Addr{63};
    } else if (kind == 2) {
        // Irregular site: most accesses fall in a hot eighth of the
        // working set, the rest anywhere (pointer-chasing-like).
        site.kind = SiteKind::Irregular;
        site.stride = 0;
        site.region = ws;
        site.base = kDataBase;
        site.pos = 0;
    } else {
        // Cache-resident small-stride sweep of a shared small array.
        const Region &r =
            resident_pool_[rng_.below(resident_pool_.size())];
        site.kind = SiteKind::Resident;
        static constexpr Addr kStrides[] = {4, 8, 8, 16};
        site.stride = kStrides[rng_.below(std::size(kStrides))];
        site.region = r.size;
        site.base = r.base;
        site.pos = rng_.below(site.region) & ~Addr{3};
    }
    return site;
}

Addr
TraceGenerator::nextAddress(MemSite &site)
{
    switch (site.kind) {
      case SiteKind::Local:
      case SiteKind::Resident:
      case SiteKind::Streaming:
        site.pos = (site.pos + site.stride) % site.region;
        return site.base + site.pos;
      case SiteKind::Irregular: {
        const Addr hot = std::max(site.region / 8, Addr{4096});
        const Addr span = rng_.chance(0.8) ? hot : site.region;
        return site.base + (rng_.below(span) & ~Addr{3});
      }
    }
    panic("bad SiteKind");
}

OpClass
TraceGenerator::drawBodyClass()
{
    // Body mix excludes control classes (the terminator supplies the
    // branch fraction); renormalize the remaining fractions.
    const double denom = 1.0 - profile_.frac_branch;
    double u = rng_.uniform() * denom;
    if ((u -= profile_.frac_load) < 0)
        return OpClass::Load;
    if ((u -= profile_.frac_store) < 0)
        return OpClass::Store;
    if ((u -= profile_.frac_mult) < 0)
        return OpClass::IntMult;
    if ((u -= profile_.frac_fp) < 0)
        return rng_.chance(0.5) ? OpClass::FpAlu : OpClass::FpMult;
    return OpClass::IntAlu;
}

void
TraceGenerator::buildProgram()
{
    buildRegionPools();
    const unsigned total = profile_.num_blocks;
    // Function-entry blocks live at the top of the index space and
    // are reachable only through calls; they end in Return.
    const unsigned funcs = std::max(1u,
        static_cast<unsigned>(total * profile_.call_fraction));
    num_normal_ = total - funcs;
    if (num_normal_ < 2)
        throw std::invalid_argument(
            "profile " + profile_.name + ": too few normal blocks (" +
            std::to_string(num_normal_) + ")");

    // Mean body length so that terminators make up frac_branch of
    // the dynamic stream: B = (1 - f) / f.
    const double mean_len =
        (1.0 - profile_.frac_branch) / profile_.frac_branch;
    const double geo_p = 1.0 / std::max(1.0, mean_len);

    // First pass: block bodies and addresses.
    blocks_.resize(total);
    Addr pc = kCodeBase;
    for (unsigned b = 0; b < total; ++b) {
        Block &blk = blocks_[b];
        blk.pc = pc;
        blk.first_inst = static_cast<std::uint32_t>(insts_.size());
        const auto len = static_cast<std::uint32_t>(std::min<Cycle>(
            rng_.geometric(geo_p), static_cast<Cycle>(4 * mean_len) + 1));
        for (std::uint32_t i = 0; i < len; ++i)
            insts_.push_back(makeStaticInst(drawBodyClass()));
        blk.num_insts = len;
        pc += Addr{4} * (len + 1); // body + terminator
    }

    // Second pass: organize the normal blocks into loop nests. Each
    // nest is a contiguous run of 1-8 blocks whose last block loops
    // back to the nest head with probability 1 - 1/mean_loop_iters;
    // internal branches stay inside the nest. The program thus walks
    // nest by nest through its whole footprint, iterating each —
    // execution is spread deterministically (stable statistics)
    // while staying loop-structured (realistic predictor and cache
    // behavior).
    const double p_loop = 1.0 - 1.0 / profile_.mean_loop_iters;
    unsigned b = 0;
    while (b < num_normal_) {
        const unsigned nest_size = 1 +
            static_cast<unsigned>(rng_.below(8));
        const unsigned s = b;
        const unsigned e =
            std::min(s + nest_size, num_normal_) - 1;
        for (unsigned i = s; i <= e; ++i) {
            Block &blk = blocks_[i];
            blk.term_src = pickSource(false);
            blk.fall_succ = (i + 1) % num_normal_;
            blk.call_target = 0;
            const double cfracs[2] = {
                profile_.call_fraction,
                1.0 - profile_.call_fraction,
            };
            if (i == e) {
                // Loop-back branch: strongly taken until exit.
                blk.term_cls = OpClass::Branch;
                blk.taken_succ = s;
                blk.taken_prob = p_loop;
            } else if (apportion(cfracs, 2, call_assigned_) == 0) {
                blk.term_cls = OpClass::Call;
                blk.taken_prob = 1.0;
                blk.call_target = num_normal_ +
                    static_cast<std::uint32_t>(rng_.below(funcs));
                blk.taken_succ = blk.call_target;
            } else {
                // Internal branch within the nest: forward-only
                // (like compiler-emitted if/else skips), so only the
                // loop-back edge creates repetition and no seed can
                // produce a pathological inner trap. Strong/noisy
                // categories are striped so every nest carries a
                // representative mix; strong forward branches are
                // rarely taken.
                blk.term_cls = OpClass::Branch;
                const double bfracs[2] = {
                    profile_.branch_bias_strong,
                    1.0 - profile_.branch_bias_strong,
                };
                if (apportion(bfracs, 2, branch_assigned_) == 0)
                    blk.taken_prob = 1.0 - profile_.strong_taken_bias;
                else
                    blk.taken_prob = profile_.noisy_taken_prob;
                blk.taken_succ = static_cast<std::uint32_t>(
                    i + 1 + rng_.below(e - i));
            }
        }
        b = e + 1;
    }

    // Function blocks end in Return.
    for (unsigned f = num_normal_; f < total; ++f) {
        Block &blk = blocks_[f];
        blk.term_cls = OpClass::Return;
        blk.term_src = pickSource(false);
        blk.taken_prob = 1.0;
        blk.taken_succ = 0; // actual target comes from the stack
        blk.fall_succ = 0;
        blk.call_target = 0;
    }
    code_bytes_ = pc - kCodeBase;
    num_static_ = insts_.size() + blocks_.size();
    cur_block_ = 0;
    cursor_ = 0;
}

MicroOp
TraceGenerator::next()
{
    ++icount_;
    const Block &blk = blocks_[cur_block_];
    MicroOp op{};

    if (cursor_ < blk.num_insts) {
        const StaticInst &si = insts_[blk.first_inst + cursor_];
        op.pc = blk.pc + Addr{4} * cursor_;
        op.cls = si.cls;
        op.dst = si.dst;
        op.src1 = si.src1;
        op.src2 = si.src2;
        if (si.mem_site >= 0)
            op.mem_addr = nextAddress(mem_sites_[si.mem_site]);
        ++cursor_;
        return op;
    }

    // Terminator.
    op.pc = blk.termPc();
    op.cls = blk.term_cls;
    op.src1 = blk.term_src;
    op.dst = kNoReg;

    std::uint32_t next_block;
    switch (blk.term_cls) {
      case OpClass::Branch:
        op.taken = rng_.chance(blk.taken_prob);
        next_block = op.taken ? blk.taken_succ : blk.fall_succ;
        op.target = blocks_[blk.taken_succ].pc;
        break;
      case OpClass::Call:
        op.taken = true;
        op.target = blocks_[blk.call_target].pc;
        next_block = blk.call_target;
        if (call_stack_.size() < kMaxCallDepth)
            call_stack_.push_back(blk.fall_succ);
        break;
      case OpClass::Return:
        op.taken = true;
        if (!call_stack_.empty()) {
            next_block = call_stack_.back();
            call_stack_.pop_back();
        } else {
            next_block = 0;
        }
        op.target = blocks_[next_block].pc;
        break;
      default:
        panic("block %u has non-control terminator", cur_block_);
    }

    cur_block_ = next_block;
    cursor_ = 0;
    return op;
}

} // namespace lsim::trace

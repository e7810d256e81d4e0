#include "harness/cosim.h"

#include <sstream>

#include "common/logging.h"
#include "isa/disasm.h"

namespace smtos {

namespace {

constexpr size_t recentWindow = 8;

void
printEvent(std::ostream &os, const RetireEvent &e)
{
    os << "  cycle " << e.cycle << " ctx" << static_cast<int>(e.ctx)
       << " tid" << e.thread << " seq " << e.seq << " [" << modeName(e.mode)
       << "] pc 0x" << std::hex << e.pc << std::dec << "  "
       << (e.instr ? disasm(*e.instr) : std::string("<null>"));
    if (e.instr && e.instr->isMem())
        os << "  vaddr 0x" << std::hex << e.vaddr << std::dec;
    if (e.isCondBranch)
        os << (e.taken ? "  taken" : "  not-taken");
    os << "\n";
}

} // namespace

Cosim::Cosim(const std::vector<Pipeline *> &chip)
    : chip_(chip), kernelImage_(chip.front()->kernelImage())
{
    for (Pipeline *pl : chip_) {
        smtos_assert(pl->retireObserver() == nullptr);
        pl->setRetireObserver(this);
    }
}

Cosim::~Cosim()
{
    for (Pipeline *pl : chip_)
        if (pl->retireObserver() == this)
            pl->setRetireObserver(nullptr);
}

void
Cosim::onThreadStateSync(const ThreadState &t, std::uint64_t firstSeq)
{
    if (diverged_)
        return;
    ++syncs_;
    ThreadChecker &tc = threads_[t.id];
    tc.pending.push_back({firstSeq, RefSyncState::capture(t)});
}

void
Cosim::onRetire(const RetireEvent &e)
{
    if (diverged_)
        return;
    ThreadChecker &tc = threads_[e.thread];

    // Adopt every OS intervention the retired stream has reached.
    // Per-thread seqs are monotone (in-order commit, drained-context
    // migration), so FIFO order is retirement order; when several
    // snapshots apply at once the newest wins by replacement.
    while (!tc.pending.empty() && e.seq >= tc.pending.front().firstSeq) {
        tc.ref.apply(tc.pending.front().state, kernelImage_);
        tc.pending.pop_front();
    }

    if (!tc.ref.live()) {
        diverge(e, nullptr,
                "instruction retired before any state sync for its "
                "thread (observer attached after threads were bound?)");
        return;
    }
    if (tc.ref.waitingForOs()) {
        diverge(e, nullptr,
                "instruction retired past a serializing instruction "
                "with no OS intervention in between");
        return;
    }

    const RefRetire r = tc.ref.step();
    std::ostringstream why;
    if (e.pc != r.pc)
        why << "pc: got 0x" << std::hex << e.pc << " want 0x" << r.pc
            << std::dec << "; ";
    if (e.instr != r.instr)
        why << "instr: got [" << (e.instr ? disasm(*e.instr) : "<null>")
            << "] want [" << (r.instr ? disasm(*r.instr) : "<null>")
            << "]; ";
    if (e.mode != r.mode)
        why << "mode: got " << modeName(e.mode) << " want "
            << modeName(r.mode) << "; ";
    if (e.tag != r.tag)
        why << "tag: got " << e.tag << " want " << r.tag << "; ";
    if (r.instr && r.instr->isMem() && e.vaddr != r.vaddr)
        why << "vaddr: got 0x" << std::hex << e.vaddr << " want 0x"
            << r.vaddr << std::dec << "; ";
    if (e.isCondBranch && e.taken != r.taken)
        why << "direction: got " << (e.taken ? "taken" : "not-taken")
            << " want " << (r.taken ? "taken" : "not-taken") << "; ";
    if (e.destValue != r.destValue)
        why << "destValue: got 0x" << std::hex << e.destValue
            << " want 0x" << r.destValue << std::dec << "; ";

    const std::string w = why.str();
    if (!w.empty()) {
        diverge(e, &r, w);
        return;
    }

    ++checked_;
    tc.recent.push_back(e);
    if (tc.recent.size() > recentWindow)
        tc.recent.pop_front();
}

void
Cosim::diverge(const RetireEvent &e, const RefRetire *expect,
               const std::string &what)
{
    diverged_ = true;
    std::ostringstream os;
    os << "cosim divergence at cycle " << e.cycle << ", ctx"
       << static_cast<int>(e.ctx) << ", tid " << e.thread << ", seq "
       << e.seq << ", after " << checked_ << " verified retirements\n"
       << "  " << what << "\n"
       << "retired: pc 0x" << std::hex << e.pc << std::dec << " ["
       << modeName(e.mode) << "] "
       << (e.instr ? disasm(*e.instr) : std::string("<null>")) << "\n";
    if (expect && expect->instr) {
        os << "expected: pc 0x" << std::hex << expect->pc << std::dec
           << " [" << modeName(expect->mode) << "] "
           << disasm(*expect->instr) << "\n";
    }
    const ThreadChecker &tc = threads_[e.thread];
    if (!tc.recent.empty()) {
        os << "last " << tc.recent.size()
           << " retirements of this thread:\n";
        for (const RetireEvent &p : tc.recent)
            printEvent(os, p);
    }
    os << "diverging retirement:\n";
    printEvent(os, e);
    report_ = os.str();
}

} // namespace smtos

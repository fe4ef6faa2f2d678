#include "redundancy/redundancy.hh"

#include <unordered_map>
#include <unordered_set>

#include "emu/engine.hh"
#include "emu/state.hh"
#include "isa/decode.hh"

namespace vpir
{

namespace
{

/** Mix two operand values into one lookup key. */
uint64_t
operandKey(uint64_t a, uint64_t b)
{
    uint64_t h = a * 0x9e3779b97f4a7c15ull;
    h ^= (b + 0x517cc1b727220a95ull) + (h << 6) + (h >> 2);
    return h;
}

/** Per-static-instruction history buffers. */
struct StaticHistory
{
    std::unordered_set<uint64_t> results;
    /** operand tuple -> last result computed from it. */
    std::unordered_map<uint64_t, uint64_t> byOperands;
    uint64_t lastResult = 0;
    uint64_t prevResult = 0;
    unsigned seen = 0;
};

/** Last writer of each architectural register. */
struct WriterInfo
{
    uint64_t index = 0;     //!< dynamic instruction number
    bool reused = false;    //!< that instance was itself reused
                            //!< (repeated with matching operands)
    bool valid = false;
};

} // anonymous namespace

RedundancyStats
analyzeRedundancy(const Program &program, const RedundancyParams &params)
{
    RedundancyStats out;
    EmuState state;
    Emulator::loadProgram(program, state);
    const DecodedProgram code = predecode(program);
    FuncEngine engine(code, state);

    std::unordered_map<Addr, StaticHistory> hist;
    WriterInfo writers[NUM_ARCH_REGS] = {};

    uint64_t idx = 0;
    SemOut sem;
    uint64_t src_vals[2];
    while (idx < params.maxInsts) {
        const Addr pc = engine.pc();
        const DecodedInst *w = engine.step(sem, src_vals);
        if (!w)
            break;
        ++idx;
        ++out.totalDynamic;

        // Counts writes to r0 too: the test is on the instruction's
        // own rd field, not on its (r0-filtered) destinations.
        bool produces = w->inst.rd != REG_INVALID &&
                        w->info->cls != InstClass::Nop;

        bool this_reused = false;
        if (produces) {
            ++out.resultProducing;
            StaticHistory &h = hist[pc];
            uint64_t result = sem.result;

            bool is_repeated = h.results.count(result) > 0;
            bool is_derivable = false;
            if (!is_repeated && h.seen >= 2) {
                uint64_t stride = h.lastResult - h.prevResult;
                is_derivable = result == h.lastResult + stride;
            }

            // An instance is reused when it repeats a result that
            // was computed from the same operand values before
            // (paper §4.3: the operand-based reuse test succeeds).
            uint64_t key = operandKey(src_vals[0], src_vals[1]);
            auto op_it = h.byOperands.find(key);
            bool operands_seen =
                op_it != h.byOperands.end() && op_it->second == result;
            this_reused = is_repeated && operands_seen;

            if (is_repeated) {
                ++out.repeated;

                // Figure 9: producer readiness for this instance.
                // Inputs are ready when every producer is either
                // reused itself or at least `producerDistance`
                // instructions ahead (paper §4.3).
                // An absent source is r0, which never has a writer.
                bool any_near = false;
                bool any_far = false;
                for (RegId r : w->src) {
                    const WriterInfo &wr = writers[r];
                    if (!wr.valid)
                        continue; // architectural: long ago
                    if (wr.reused)
                        continue;
                    if (idx - wr.index < params.producerDistance)
                        any_near = true;
                    else
                        any_far = true;
                }
                if (any_near)
                    ++out.prodNear;
                else if (any_far)
                    ++out.prodFar;
                else
                    ++out.prodReused;

                if (!operands_seen)
                    ++out.inputsDifferent;
                if (operands_seen && !any_near)
                    ++out.reusable;
            } else if (is_derivable) {
                ++out.derivable;
            } else if (h.results.size() >= params.maxInstances) {
                ++out.unaccounted;
            } else {
                ++out.unique;
            }

            if (h.results.size() < params.maxInstances)
                h.results.insert(result);
            if (h.byOperands.size() < params.maxInstances) {
                h.byOperands[key] = result;
            }
            h.prevResult = h.lastResult;
            h.lastResult = result;
            ++h.seen;
        }

        // Track register writers for the readiness model.
        for (RegId r : w->dst) {
            if (r != REG_ZERO)
                writers[r] = WriterInfo{idx, this_reused, true};
        }
    }

    return out;
}

} // namespace vpir

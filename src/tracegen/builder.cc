#include "tracegen/builder.h"

#include <algorithm>

#include "util/logging.h"
#include "util/rng.h"

namespace dynex
{

NodePtr
codeBlock(Program &program, std::uint32_t instrs)
{
    return std::make_unique<CodeBlock>(program.allocateCode(instrs),
                                       instrs);
}

NodePtr
codeBlock(Program &program, std::uint32_t instrs, DataPattern *data,
          double load_frac, double store_frac)
{
    auto block = std::make_unique<CodeBlock>(program.allocateCode(instrs),
                                             instrs);
    block->attachData(data, load_frac, store_frac);
    return block;
}

NodePtr
loop(NodePtr body, std::uint32_t min_iter, std::uint32_t max_iter)
{
    return std::make_unique<Loop>(std::move(body), min_iter, max_iter);
}

NodePtr
loop(NodePtr body, std::uint32_t iterations)
{
    return std::make_unique<Loop>(std::move(body), iterations, iterations);
}

NodePtr
call(const Function *callee)
{
    return std::make_unique<Call>(callee);
}

NodePtr
alt(std::vector<std::pair<NodePtr, double>> branches)
{
    auto alternative = std::make_unique<Alternative>();
    for (auto &[node, weight] : branches)
        alternative->add(std::move(node), weight);
    return alternative;
}

namespace
{

/** Make a block with the spec's data attachment, if any. */
std::unique_ptr<CodeBlock>
specBlock(Program &program, const CallTreeSpec &spec, Rng &rng)
{
    const auto instrs = static_cast<std::uint32_t>(rng.nextRange(
        spec.minBlockInstrs, spec.maxBlockInstrs));
    auto block = std::make_unique<CodeBlock>(
        program.allocateCode(instrs), instrs);
    if (spec.data != nullptr)
        block->attachData(spec.data, spec.loadFrac, spec.storeFrac);
    return block;
}

/**
 * Build one function body. Non-leaf bodies interleave blocks with
 * weighted-alternative call sites over the function's children: the
 * first child dominates (the hot path), later children run as
 * occasional excursions — the cold code whose conflicts with the hot
 * path dynamic exclusion targets. Leaf bodies are hot loop nests over
 * contiguous code, supplying the hit mass.
 */
NodePtr
buildBody(Program &program, const CallTreeSpec &spec, Rng &rng,
          const std::vector<Function *> &children, std::uint32_t layer)
{
    // Leaf layers loop with the full iteration range; every layer of
    // height above them shifts the range down so whole-program passes
    // stay short enough for phases to recur within a trace.
    const unsigned shift =
        (spec.layers - 1 - layer) * spec.loopDepthShift;
    const std::uint32_t iter_min =
        std::max<std::uint32_t>(1, spec.minLoopIterations >> shift);
    const std::uint32_t iter_max =
        std::max<std::uint32_t>(iter_min, spec.maxLoopIterations >> shift);

    const bool children_are_leaves = layer + 2 == spec.layers;

    auto body = std::make_unique<Sequence>();
    const auto blocks = static_cast<std::uint32_t>(rng.nextRange(
        spec.minBlocksPerFunction, spec.maxBlocksPerFunction));

    // Trip counts are fixed per loop (chosen here, at build time):
    // real loops have largely stable trip counts, and that stability
    // is what makes per-set reference patterns the clean alternations
    // of Section 3 rather than noise.
    const auto trip = [&] {
        return static_cast<std::uint32_t>(
            rng.nextRange(iter_min, iter_max));
    };

    // Leaf-parent functions gather their (block, leaf-call) pairs
    // into ONE loop: the loop body is a multi-kilobyte code complex
    // revisited every iteration at short reuse distance, so any
    // aliasing inside it is a live, recurring conflict — the paper's
    // within-loop and loop-level patterns.
    auto complex_body =
        children_are_leaves ? std::make_unique<Sequence>() : nullptr;

    std::size_t next_child = 0;
    Addr first_block_addr = 0;
    for (std::uint32_t b = 0; b < blocks; ++b) {
        auto block = specBlock(program, spec, rng);
        if (b == 0)
            first_block_addr = block->startAddr();
        NodePtr segment = std::move(block);

        NodePtr call_site;
        if (!children.empty() && rng.nextBool(spec.callProbability)) {
            // Call sites are deterministic — each targets one fixed
            // child (flat profiles come from having many sites, not
            // from per-execution randomness). A fraction of sites are
            // two-way excursion sites that occasionally take a cold
            // callee instead; those excursions are exactly the
            // conflict traffic dynamic exclusion filters out.
            Function *hot = children[next_child % children.size()];
            ++next_child;
            if (children.size() >= 2 &&
                rng.nextBool(spec.excursionProbability)) {
                Function *cold = children[rng.nextBelow(children.size())];
                std::vector<std::pair<NodePtr, double>> branches;
                branches.emplace_back(call(hot), 1.0);
                branches.emplace_back(call(cold), spec.callSkew);
                call_site = alt(std::move(branches));
            } else {
                call_site = call(hot);
            }
        }

        if (children_are_leaves) {
            complex_body->add(std::move(segment));
            if (call_site)
                complex_body->add(std::move(call_site));
        } else {
            // Calls above the leaf-parent layer stay outside loops so
            // pass lengths do not explode multiplicatively.
            if (rng.nextBool(spec.loopProbability))
                segment = loop(std::move(segment), trip());
            body->add(std::move(segment));
            if (call_site)
                body->add(std::move(call_site));
        }
    }

    if (children_are_leaves) {
        if (spec.selfConflictProbability > 0.0 &&
            rng.nextBool(spec.selfConflictProbability) &&
            complex_body->childCount() > 0) {
            // Unlucky placement: a tail block aliasing the complex's
            // first block. Each loop iteration then references both
            // conflicting regions once — the within-loop pattern.
            // The alias modulus is drawn from {M, M/2, M/4} so the
            // suite carries conflict pairs that matter across the
            // whole cache-size axis, not just at M.
            const auto instrs = static_cast<std::uint32_t>(rng.nextRange(
                spec.minBlockInstrs, spec.maxBlockInstrs));
            const std::uint64_t modulo =
                spec.conflictModulo >> rng.nextBelow(3);
            const Addr aliased = program.allocateCodeAliasing(
                first_block_addr, instrs, modulo);
            auto tail = std::make_unique<CodeBlock>(aliased, instrs);
            if (spec.data != nullptr)
                tail->attachData(spec.data, spec.loadFrac,
                                 spec.storeFrac);
            complex_body->add(std::move(tail));
        }
        NodePtr complex(std::move(complex_body));
        if (rng.nextBool(spec.loopProbability))
            complex = loop(std::move(complex), trip());
        body->add(std::move(complex));
    }
    return body;
}

} // namespace

Function *
makeCallTreeProgram(Program &program, const CallTreeSpec &spec,
                    std::uint64_t seed)
{
    DYNEX_ASSERT(spec.numFunctions >= spec.layers,
                 "need at least one function per layer");
    DYNEX_ASSERT(spec.layers >= 1, "need at least one layer");
    DYNEX_ASSERT(spec.phaseRoots >= 1, "need at least one phase root");
    DYNEX_ASSERT(spec.callSkew > 0.0 && spec.callSkew <= 1.0,
                 "call skew must be in (0, 1]");

    Rng rng(seed);

    // Layer sizes grow geometrically below the roots so call trees
    // fan out; every function lands in exactly one layer.
    std::vector<std::vector<Function *>> layer_functions(spec.layers);
    {
        std::vector<std::uint32_t> sizes(spec.layers, 0);
        sizes[0] = std::min(spec.phaseRoots, spec.numFunctions);
        std::uint32_t assigned = sizes[0];
        double weight_total = 0.0;
        for (std::uint32_t l = 1; l < spec.layers; ++l)
            weight_total += static_cast<double>(1u << l);
        for (std::uint32_t l = 1; l < spec.layers && weight_total > 0;
             ++l) {
            const auto share = static_cast<std::uint32_t>(
                (spec.numFunctions - sizes[0]) *
                (static_cast<double>(1u << l) / weight_total));
            sizes[l] = std::max<std::uint32_t>(1, share);
            assigned += sizes[l];
        }
        // Put any rounding remainder in the deepest layer.
        if (assigned < spec.numFunctions)
            sizes[spec.layers - 1] += spec.numFunctions - assigned;

        std::uint32_t index = 0;
        for (std::uint32_t l = 0; l < spec.layers; ++l) {
            for (std::uint32_t k = 0; k < sizes[l]; ++k) {
                std::string name = "f";
                name += std::to_string(index++);
                layer_functions[l].push_back(
                    program.addFunction(name));
            }
        }
    }

    // Bodies are built root-first so code placement follows call
    // order; children are assigned as contiguous slices of the next
    // layer, so every function is reachable and the whole footprint
    // executes.
    for (std::uint32_t l = 0; l < spec.layers; ++l) {
        const auto &fns = layer_functions[l];
        const auto &next =
            l + 1 < spec.layers ? layer_functions[l + 1]
                                : std::vector<Function *>{};
        for (std::size_t f = 0; f < fns.size(); ++f) {
            std::vector<Function *> children;
            if (!next.empty()) {
                // Contiguous slice per parent (wrapping), so children
                // partition evenly and all are reachable.
                const std::size_t per_parent =
                    (next.size() + fns.size() - 1) / fns.size();
                for (std::size_t k = 0; k < per_parent; ++k)
                    children.push_back(
                        next[(f * per_parent + k) % next.size()]);
            }
            fns[f]->setBody(
                buildBody(program, spec, rng, children, l));
        }
    }

    // The entry function cycles through the phase roots.
    Function *entry = program.addFunction("main");
    auto driver = std::make_unique<Sequence>();
    for (Function *root : layer_functions[0])
        driver->add(call(root));
    entry->setBody(std::move(driver));
    program.setEntry(entry);
    return entry;
}

} // namespace dynex

#include "tracegen/spec.h"

#include "tracegen/builder.h"
#include "tracegen/executor.h"
#include "util/logging.h"

namespace dynex
{

namespace
{

// Data segments sit far above the code segment so instruction and data
// footprints never alias in a shared cache by construction accident;
// they still conflict through normal set indexing.
constexpr Addr kDataBase = 0x1000'0000;

/** Deterministic per-benchmark seed derived from the name. */
std::uint64_t
nameSeed(const std::string &name)
{
    std::uint64_t h = 0xcbf29ce484222325ull;
    for (char ch : name) {
        h ^= static_cast<unsigned char>(ch);
        h *= 0x100000001b3ull;
    }
    return h;
}

/**
 * doduc: Monte Carlo simulation — dozens of mid-size FP routines in a
 * layered call tree with moderate loop counts; a broad, warm profile
 * with heavy conflict traffic at mid cache sizes.
 */
std::unique_ptr<Program>
makeDoduc()
{
    auto program = std::make_unique<Program>("doduc");
    auto data = std::make_unique<MixPattern>(nameSeed("doduc.data"));
    data->add(std::make_unique<ZipfPattern>(kDataBase, 2000, 64, 0.9,
                                            nameSeed("doduc.zipf")),
              0.5);
    data->add(std::make_unique<RandomPattern>(kDataBase + 0x20'0000,
                                              64 * 1024,
                                              nameSeed("doduc.rand")),
              0.3);
    data->add(std::make_unique<StackPattern>(kDataBase + 0x40'0000,
                                             16 * 1024, 96,
                                             nameSeed("doduc.stack")),
              0.2);
    DataPattern *mix = program->addPattern(std::move(data));

    CallTreeSpec spec;
    spec.numFunctions = 80;
    spec.layers = 3;
    spec.phaseRoots = 3;
    spec.minBlockInstrs = 40;
    spec.maxBlockInstrs = 120;
    spec.minBlocksPerFunction = 2;
    spec.maxBlocksPerFunction = 4;
    spec.loopProbability = 0.7;
    spec.minLoopIterations = 6;
    spec.maxLoopIterations = 16;
    spec.callProbability = 0.65;
    spec.callFanout = 3;
    spec.excursionProbability = 0.35;
    spec.callSkew = 0.25;
    spec.selfConflictProbability = 0.45;
    spec.data = mix;
    spec.loadFrac = 0.24;
    spec.storeFrac = 0.08;
    makeCallTreeProgram(*program, spec, nameSeed("doduc.struct"));
    return program;
}

/**
 * eqntott: truth-table conversion — nearly all time in two tight
 * comparison loops over large bit vectors; tiny hot code, large
 * streaming data.
 */
std::unique_ptr<Program>
makeEqntott()
{
    auto program = std::make_unique<Program>("eqntott");
    DataPattern *vectors = program->addPattern(
        std::make_unique<SequentialPattern>(kDataBase, 96 * 1024, 4));
    DataPattern *table = program->addPattern(
        std::make_unique<RandomPattern>(kDataBase + 0x10'0000, 32 * 1024,
                                        nameSeed("eqntott.rand")));

    Function *cmppt = program->addFunction("cmppt");
    auto cmppt_hot =
        std::make_unique<CodeBlock>(program->allocateCode(24), 24);
    cmppt_hot->attachData(vectors, 0.35, 0.05);
    const Addr cmppt_hot_addr = cmppt_hot->startAddr();
    cmppt->setBody(seq(
        codeBlock(*program, 12),
        loop(NodePtr(std::move(cmppt_hot)), 40, 120),
        codeBlock(*program, 8)));

    // aux's entry code landed on the same cache lines as cmppt's hot
    // loop (an unlucky link order): executed once per phase against
    // the hot loop — the paper's loop-level conflict.
    Function *aux = program->addFunction("aux");
    auto aux_entry = std::make_unique<CodeBlock>(
        program->allocateCodeAliasing(cmppt_hot_addr, 14, 32 * 1024),
        14);
    aux_entry->attachData(table, 0.2, 0.1);
    aux->setBody(seq(
        NodePtr(std::move(aux_entry)),
        loop(codeBlock(*program, 18, table, 0.3, 0.08), 6, 24)));

    // Cold support code: touched briefly between hot phases.
    Function *support = program->addFunction("support");
    support->setBody(seq(codeBlock(*program, 2600, table, 0.1, 0.05)));

    Function *entry = program->addFunction("main");
    entry->setBody(seq(
        loop(seq(call(cmppt), call(aux)), 30, 80),
        call(support)));
    program->setEntry(entry);
    return program;
}

/**
 * espresso: boolean minimization — many small loops over cube lists in
 * a broad set of small routines; modest working set, frequent phase
 * changes.
 */
std::unique_ptr<Program>
makeEspresso()
{
    auto program = std::make_unique<Program>("espresso");
    auto data = std::make_unique<MixPattern>(nameSeed("espresso.data"));
    data->add(std::make_unique<ZipfPattern>(kDataBase, 1024, 32, 1.0,
                                            nameSeed("espresso.zipf")),
              0.6);
    data->add(std::make_unique<RandomPattern>(kDataBase + 0x10'0000,
                                              24 * 1024,
                                              nameSeed("espresso.rand")),
              0.4);
    DataPattern *mix = program->addPattern(std::move(data));

    CallTreeSpec spec;
    spec.numFunctions = 220;
    spec.layers = 4;
    spec.phaseRoots = 3;
    spec.minBlockInstrs = 10;
    spec.maxBlockInstrs = 40;
    spec.minBlocksPerFunction = 2;
    spec.maxBlocksPerFunction = 4;
    spec.loopProbability = 0.65;
    spec.minLoopIterations = 8;
    spec.maxLoopIterations = 48;
    spec.callProbability = 0.6;
    spec.callFanout = 3;
    spec.excursionProbability = 0.3;
    spec.callSkew = 0.25;
    spec.data = mix;
    spec.loadFrac = 0.28;
    spec.storeFrac = 0.1;
    makeCallTreeProgram(*program, spec, nameSeed("espresso.struct"));
    return program;
}

/**
 * fpppp: quantum chemistry — enormous straight-line FP basic blocks;
 * per-phase code footprint deliberately near the mid cache sizes so
 * conflicts are plentiful but not purely streaming.
 */
std::unique_ptr<Program>
makeFpppp()
{
    auto program = std::make_unique<Program>("fpppp");
    DataPattern *arrays = program->addPattern(
        std::make_unique<SequentialPattern>(kDataBase, 96 * 1024, 8));
    DataPattern *stack = program->addPattern(std::make_unique<StackPattern>(
        kDataBase + 0x20'0000, 16 * 1024, 128, nameSeed("fpppp.stack")));

    // Fifteen big straight-line routines (~9-11KB each), executed in
    // windows of three inside steady loops: each window's body
    // (~28-34KB) slightly exceeds a 32KB cache, so on the aliased sets
    // every line is referenced exactly once per iteration — the
    // paper's conflict-within-a-loop pattern at the scale real fpppp
    // exhibits it.
    std::vector<Function *> routines;
    for (int i = 0; i < 9; ++i) {
        Function *fn =
            program->addFunction("fmtgen" + std::to_string(i));
        const std::uint32_t instrs = 2660 + 20 * (i % 5);
        fn->setBody(seq(
            codeBlock(*program, instrs, arrays, 0.3, 0.12),
            codeBlock(*program, 120, stack, 0.2, 0.2)));
        routines.push_back(fn);
    }

    Function *entry = program->addFunction("main");
    auto schedule = std::make_unique<Sequence>();
    for (int w = 0; w < 3; ++w) {
        auto window = std::make_unique<Sequence>();
        window->add(codeBlock(*program, 40, stack, 0.25, 0.1));
        for (int k = 0; k < 3; ++k)
            window->add(call(routines[(w * 3 + k) % routines.size()]));
        schedule->add(loop(NodePtr(std::move(window)), 30, 40));
    }
    entry->setBody(std::move(schedule));
    program->setEntry(entry);
    return program;
}

/**
 * gcc: compiler — a very broad flat call graph with little loop reuse
 * and the largest code footprint in the suite.
 */
std::unique_ptr<Program>
makeGcc()
{
    auto program = std::make_unique<Program>("gcc");
    auto data = std::make_unique<MixPattern>(nameSeed("gcc.data"));
    data->add(std::make_unique<PointerChasePattern>(
                  kDataBase, 8 * 1024, 32, nameSeed("gcc.chase")),
              0.35);
    data->add(std::make_unique<ZipfPattern>(kDataBase + 0x20'0000, 4096,
                                            32, 1.05,
                                            nameSeed("gcc.zipf")),
              0.4);
    data->add(std::make_unique<StackPattern>(kDataBase + 0x40'0000,
                                             24 * 1024, 80,
                                             nameSeed("gcc.stack")),
              0.25);
    DataPattern *mix = program->addPattern(std::move(data));

    CallTreeSpec spec;
    spec.numFunctions = 300;
    spec.layers = 4;
    spec.phaseRoots = 4;
    spec.minBlockInstrs = 10;
    spec.maxBlockInstrs = 50;
    spec.minBlocksPerFunction = 2;
    spec.maxBlocksPerFunction = 5;
    spec.loopProbability = 0.45;
    spec.minLoopIterations = 3;
    spec.maxLoopIterations = 10;
    spec.callProbability = 0.7;
    spec.callFanout = 4;
    spec.excursionProbability = 0.2;
    spec.callSkew = 0.15;
    spec.selfConflictProbability = 0.7;
    spec.data = mix;
    spec.loadFrac = 0.26;
    spec.storeFrac = 0.11;
    makeCallTreeProgram(*program, spec, nameSeed("gcc.struct"));
    return program;
}

/**
 * li: lisp interpreter — a dispatch loop over opcode handlers with
 * occasional recursion into eval and rare excursions into large
 * support routines (gc, reader).
 */
std::unique_ptr<Program>
makeLi()
{
    auto program = std::make_unique<Program>("li");
    DataPattern *heap = program->addPattern(
        std::make_unique<PointerChasePattern>(kDataBase, 6 * 1024, 16,
                                              nameSeed("li.heap")));
    DataPattern *stack = program->addPattern(std::make_unique<StackPattern>(
        kDataBase + 0x10'0000, 8 * 1024, 48, nameSeed("li.stack")));

    Function *eval = program->addFunction("xleval");

    // The dispatch prologue is the hottest code in the program; it is
    // allocated first so helpers can be placed against it.
    auto eval_prologue =
        std::make_unique<CodeBlock>(program->allocateCode(30), 30);
    eval_prologue->attachData(stack, 0.25, 0.15);
    const Addr eval_prologue_addr = eval_prologue->startAddr();

    // Support helpers the handlers lean on (cons, symbol lookup,
    // arithmetic, printing, ...): a skewed population so a hot subset
    // shares the cache with the dispatch loop while the cold tail
    // causes excursion conflicts. A few landed on the dispatch loop's
    // cache lines — the unlucky placements dynamic exclusion absorbs.
    std::vector<Function *> helpers;
    for (int i = 0; i < 60; ++i) {
        Function *helper =
            program->addFunction("xlh" + std::to_string(i));
        const std::uint32_t instrs =
            40 + static_cast<std::uint32_t>((i * 23) % 120);
        const bool aliases_dispatch = i % 9 == 4;
        auto entry_block = std::make_unique<CodeBlock>(
            aliases_dispatch
                ? program->allocateCodeAliasing(eval_prologue_addr,
                                                instrs, 32 * 1024)
                : program->allocateCode(instrs),
            instrs);
        entry_block->attachData(heap, 0.3, 0.1);
        helper->setBody(seq(
            NodePtr(std::move(entry_block)),
            loop(codeBlock(*program, 12, heap, 0.35, 0.12), 1, 4)));
        helpers.push_back(helper);
    }

    // Opcode handlers: most are small; some call helpers, a few call
    // back into eval (bounded by the executor's recursion guard).
    std::vector<std::pair<NodePtr, double>> dispatch;
    for (int i = 0; i < 64; ++i) {
        const std::uint32_t instrs =
            16 + static_cast<std::uint32_t>((i * 7) % 44);
        NodePtr handler =
            seq(codeBlock(*program, instrs, heap, 0.3, 0.1));
        if (i % 6 == 0) {
            handler = seq(std::move(handler), call(eval));
        } else if (i % 2 == 0) {
            handler = seq(std::move(handler),
                          call(helpers[(i * 13) % helpers.size()]));
        }
        dispatch.emplace_back(std::move(handler),
                              1.0 / (1.0 + 0.22 * i));
    }

    eval->setBody(seq(
        NodePtr(std::move(eval_prologue)),
        alt(std::move(dispatch)),
        codeBlock(*program, 14, stack, 0.2, 0.1)));

    Function *gc = program->addFunction("gc");
    gc->setBody(seq(
        codeBlock(*program, 500, heap, 0.35, 0.15),
        loop(codeBlock(*program, 120, heap, 0.4, 0.2), 10, 30)));

    Function *reader = program->addFunction("xlread");
    reader->setBody(
        seq(loop(codeBlock(*program, 260, heap, 0.25, 0.12), 4, 12)));

    Function *entry = program->addFunction("main");
    entry->setBody(seq(
        loop(call(eval), 40, 120),
        alt([&] {
            std::vector<std::pair<NodePtr, double>> rare;
            rare.emplace_back(call(gc), 1.0);
            rare.emplace_back(call(reader), 1.0);
            rare.emplace_back(codeBlock(*program, 8, stack, 0.2, 0.1),
                              6.0);
            return rare;
        }())));
    program->setEntry(entry);
    return program;
}

/**
 * mat300: dense matrix multiply — a tiny triple-nested loop kernel
 * with huge streaming arrays; essentially zero instruction conflicts.
 */
std::unique_ptr<Program>
makeMat300()
{
    auto program = std::make_unique<Program>("mat300");
    DataPattern *row = program->addPattern(
        std::make_unique<SequentialPattern>(kDataBase, 720 * 1024, 8));
    DataPattern *col = program->addPattern(std::make_unique<SequentialPattern>(
        kDataBase + 0x10'0000, 720 * 1024, 2400));
    DataPattern *out = program->addPattern(std::make_unique<SequentialPattern>(
        kDataBase + 0x20'0000, 720 * 1024, 8));

    auto inner = std::make_unique<Sequence>();
    {
        auto body = std::make_unique<CodeBlock>(program->allocateCode(18),
                                                18);
        body->attachData(row, 0.45, 0.0);
        inner->add(std::move(body));
        auto body2 = std::make_unique<CodeBlock>(program->allocateCode(10),
                                                 10);
        body2->attachData(col, 0.45, 0.0);
        inner->add(std::move(body2));
    }

    Function *kernel = program->addFunction("saxpy");
    kernel->setBody(seq(
        codeBlock(*program, 8),
        loop(NodePtr(std::move(inner)), 300),
        codeBlock(*program, 6, out, 0.0, 0.8)));

    Function *entry = program->addFunction("main");
    entry->setBody(seq(
        codeBlock(*program, 12),
        loop(call(kernel), 300)));
    program->setEntry(entry);
    return program;
}

/**
 * nasa7: seven FP kernels executed in sequence — each kernel fits the
 * cache and runs long, so misses concentrate at phase boundaries.
 */
std::unique_ptr<Program>
makeNasa7()
{
    auto program = std::make_unique<Program>("nasa7");

    Function *entry = program->addFunction("main");
    auto schedule = std::make_unique<Sequence>();
    for (int k = 0; k < 7; ++k) {
        DataPattern *array =
            program->addPattern(std::make_unique<SequentialPattern>(
                kDataBase + static_cast<Addr>(k) * 0x40'0000,
                (128 + 128 * static_cast<std::uint64_t>(k % 4)) * 1024,
                8));
        Function *kernel =
            program->addFunction("kernel" + std::to_string(k));
        const std::uint32_t body_instrs =
            60 + 40 * static_cast<std::uint32_t>(k % 3);
        kernel->setBody(seq(
            codeBlock(*program, 30),
            loop(seq(loop(codeBlock(*program, body_instrs, array, 0.4,
                                    0.15),
                          20, 60),
                     codeBlock(*program, 16)),
                 15, 40),
            codeBlock(*program, 20)));
        schedule->add(call(kernel));
    }
    entry->setBody(std::move(schedule));
    program->setEntry(entry);
    return program;
}

/**
 * spice: circuit simulation — a device-evaluation loop sweeping many
 * model routines each iteration, with skewed parameter-table data.
 */
std::unique_ptr<Program>
makeSpice()
{
    auto program = std::make_unique<Program>("spice");
    auto data = std::make_unique<MixPattern>(nameSeed("spice.data"));
    data->add(std::make_unique<ZipfPattern>(kDataBase, 2500, 64, 0.85,
                                            nameSeed("spice.zipf")),
              0.45);
    data->add(std::make_unique<SequentialPattern>(kDataBase + 0x40'0000,
                                                  192 * 1024, 8),
              0.35);
    data->add(std::make_unique<RandomPattern>(kDataBase + 0x80'0000,
                                              64 * 1024,
                                              nameSeed("spice.rand")),
              0.2);
    DataPattern *mix = program->addPattern(std::move(data));

    CallTreeSpec spec;
    spec.numFunctions = 120;
    spec.layers = 3;
    spec.phaseRoots = 2;
    spec.minBlockInstrs = 30;
    spec.maxBlockInstrs = 100;
    spec.minBlocksPerFunction = 2;
    spec.maxBlocksPerFunction = 4;
    spec.loopProbability = 0.7;
    spec.minLoopIterations = 14;
    spec.maxLoopIterations = 36;
    spec.callProbability = 0.65;
    spec.callFanout = 4;
    spec.excursionProbability = 0.3;
    spec.callSkew = 0.2;
    spec.selfConflictProbability = 0.55;
    spec.data = mix;
    spec.loadFrac = 0.27;
    spec.storeFrac = 0.09;
    makeCallTreeProgram(*program, spec, nameSeed("spice.struct"));
    return program;
}

/**
 * tomcatv: vectorized mesh generation — one dominant loop nest over
 * large arrays; near-zero instruction conflicts, data-bound.
 */
std::unique_ptr<Program>
makeTomcatv()
{
    auto program = std::make_unique<Program>("tomcatv");
    DataPattern *mesh = program->addPattern(
        std::make_unique<SequentialPattern>(kDataBase, 2 * 1024 * 1024, 8));
    DataPattern *residual = program->addPattern(
        std::make_unique<SequentialPattern>(kDataBase + 0x40'0000,
                                            2 * 1024 * 1024, 8));

    Function *sweep = program->addFunction("sweep");
    sweep->setBody(seq(
        codeBlock(*program, 24),
        loop(codeBlock(*program, 380, mesh, 0.45, 0.18), 80, 160),
        loop(codeBlock(*program, 240, residual, 0.4, 0.12), 80, 160),
        codeBlock(*program, 18)));

    Function *entry = program->addFunction("main");
    entry->setBody(seq(codeBlock(*program, 16), loop(call(sweep), 50)));
    program->setEntry(entry);
    return program;
}

} // namespace

const std::vector<BenchmarkInfo> &
specSuite()
{
    static const std::vector<BenchmarkInfo> suite = {
        {"doduc", "Monte Carlo simulation"},
        {"eqntott", "conversion from equation to truth table"},
        {"espresso", "minimization of boolean functions"},
        {"fpppp", "quantum chemistry calculations"},
        {"gcc", "GNU C compiler"},
        {"li", "lisp interpreter"},
        {"mat300", "matrix multiplication"},
        {"nasa7", "NASA Ames FORTRAN kernels"},
        {"spice", "circuit simulation"},
        {"tomcatv", "vectorized mesh generation"},
    };
    return suite;
}

bool
isSpecBenchmark(const std::string &name)
{
    for (const auto &info : specSuite()) {
        if (info.name == name)
            return true;
    }
    return false;
}

std::unique_ptr<Program>
makeSpecProgram(const std::string &name)
{
    if (name == "doduc")
        return makeDoduc();
    if (name == "eqntott")
        return makeEqntott();
    if (name == "espresso")
        return makeEspresso();
    if (name == "fpppp")
        return makeFpppp();
    if (name == "gcc")
        return makeGcc();
    if (name == "li")
        return makeLi();
    if (name == "mat300")
        return makeMat300();
    if (name == "nasa7")
        return makeNasa7();
    if (name == "spice")
        return makeSpice();
    if (name == "tomcatv")
        return makeTomcatv();
    DYNEX_FATAL("unknown benchmark '", name, "'");
}

Trace
makeSpecTrace(const std::string &name, Count num_refs, RefKinds keep)
{
    auto program = makeSpecProgram(name);
    return generateTrace(*program, num_refs, nameSeed(name + ".exec"),
                         keep);
}

} // namespace dynex

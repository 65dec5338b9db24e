#include "sim/report.h"

#include <cstdio>
#include <cstdlib>
#include <sstream>

#include "obs/json.h"
#include "util/csv.h"
#include "util/logging.h"

namespace dynex
{

FigureReport::FigureReport(std::string figure_id, std::string title,
                           std::string paper_claim)
    : figureId(std::move(figure_id)), figureTitle(std::move(title)),
      paperClaim(std::move(paper_claim))
{
}

void
FigureReport::note(const std::string &text)
{
    notes.push_back(text);
}

void
FigureReport::verdict(bool reproduced, const std::string &text)
{
    verdicts.push_back(std::string(reproduced ? "[ok]   " : "[MISS] ") +
                       text);
    if (!reproduced)
        allReproduced = false;
}

void
FigureReport::finish()
{
    DYNEX_ASSERT(!finished, "finish() called twice");
    finished = true;

    std::printf("== %s: %s ==\n", figureId.c_str(), figureTitle.c_str());
    if (!paperClaim.empty())
        std::printf("paper: %s\n", paperClaim.c_str());
    std::printf("\n%s", dataTable.toText().c_str());
    for (const auto &line : notes)
        std::printf("note: %s\n", line.c_str());
    for (const auto &line : verdicts)
        std::printf("%s\n", line.c_str());
    std::printf("\n");
    std::fflush(stdout);

    if (const char *out_dir = std::getenv("DYNEX_OUT")) {
        const std::string path =
            std::string(out_dir) + "/" + figureId + ".csv";
        std::ostringstream out;
        CsvWriter csv(out);
        csv.writeRow(dataTable.headerRow());
        for (const auto &row : dataTable.dataRows())
            csv.writeRow(row);
        if (const Status wrote = obs::writeTextFile(path, out.str());
            !wrote.ok())
            DYNEX_WARN(wrote.message());
    }
}

} // namespace dynex

#include "workload/report.h"

#include <algorithm>
#include <sstream>

#include "obs/json.h"
#include "util/csv.h"

namespace dynex
{
namespace workload
{

using obs::appendJsonString;
using obs::jsonDouble;

namespace
{

bool
wantsModel(const std::vector<std::string> &models, const char *model)
{
    return std::find(models.begin(), models.end(), model) !=
           models.end();
}

} // namespace

std::string
CampaignReport::toJson() const
{
    const bool dm = wantsModel(models, "dm");
    const bool de = wantsModel(models, "dynex");
    const bool opt = wantsModel(models, "opt");

    std::string out = "{\n\"schema\":\"dynex-metrics-v1\",\n";
    out += "\"campaign\":{\"name\":";
    appendJsonString(out, name);
    out += ",\"engine\":";
    appendJsonString(out, engine);
    out += ",\"models\":[";
    for (std::size_t i = 0; i < models.size(); ++i) {
        if (i)
            out += ',';
        appendJsonString(out, models[i]);
    }
    out += "]},\n";

    out += "\"legs\":[";
    for (std::size_t i = 0; i < legs.size(); ++i) {
        const CampaignLeg &leg = legs[i];
        out += i ? ",\n" : "\n";
        out += "{\"trace\":";
        appendJsonString(out, leg.trace);
        out += ",\"lineBytes\":" + std::to_string(leg.lineBytes) +
               ",\"sizeBytes\":" + std::to_string(leg.sizeBytes) +
               ",\"ok\":" + (leg.ok ? "true" : "false");
        if (dm)
            out += ",\"dmMissPct\":" + jsonDouble(leg.dmMissPct);
        if (de)
            out += ",\"dynexMissPct\":" + jsonDouble(leg.deMissPct);
        if (opt)
            out += ",\"optMissPct\":" + jsonDouble(leg.optMissPct);
        out += '}';
    }
    out += "\n],\n";

    out += "\"failures\":[";
    for (std::size_t i = 0; i < failures.size(); ++i) {
        const CampaignFailure &failure = failures[i];
        out += i ? ",\n" : "\n";
        out += "{\"trace\":";
        appendJsonString(out, failure.trace);
        out += ",\"lineBytes\":" + std::to_string(failure.lineBytes) +
               ",\"sizeBytes\":" + std::to_string(failure.sizeBytes) +
               ",\"model\":";
        appendJsonString(out, failure.model);
        out += ",\"status\":";
        appendJsonString(out, failure.status);
        out += '}';
    }
    out += "\n]\n}\n";
    return out;
}

std::string
CampaignReport::toCsv() const
{
    const bool dm = wantsModel(models, "dm");
    const bool de = wantsModel(models, "dynex");
    const bool opt = wantsModel(models, "opt");

    std::ostringstream out;
    CsvWriter csv(out);

    std::vector<std::string> header = {"trace", "line_bytes",
                                       "size_bytes", "ok"};
    if (dm)
        header.push_back("dm_miss_pct");
    if (de)
        header.push_back("dynex_miss_pct");
    if (opt)
        header.push_back("opt_miss_pct");
    csv.writeRow(header);

    for (const CampaignLeg &leg : legs) {
        std::vector<std::string> row = {
            leg.trace, std::to_string(leg.lineBytes),
            std::to_string(leg.sizeBytes), leg.ok ? "1" : "0"};
        if (dm)
            row.push_back(jsonDouble(leg.dmMissPct));
        if (de)
            row.push_back(jsonDouble(leg.deMissPct));
        if (opt)
            row.push_back(jsonDouble(leg.optMissPct));
        csv.writeRow(row);
    }
    return out.str();
}

} // namespace workload
} // namespace dynex

#include "workload/campaign.h"

#include <algorithm>
#include <cerrno>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <sstream>

#include "sim/sweep.h"
#include "util/bitops.h"
#include "util/string_utils.h"

namespace dynex
{
namespace workload
{

namespace
{

/** Token kinds the lexer produces. */
enum class TokKind
{
    Ident,  ///< bare word: keywords, names, sizes like 32KB
    String, ///< "double-quoted", no escapes
    Punct,  ///< one of { } ; ,
    End,
};

struct Token
{
    TokKind kind = TokKind::End;
    std::string text;
    std::size_t line = 0;
};

Status
lineError(std::size_t line_no, const std::string &reason)
{
    std::ostringstream oss;
    oss << "line " << line_no << ": " << reason;
    return Status::corruptInput(oss.str());
}

bool
isIdentChar(char c)
{
    return std::isalnum(static_cast<unsigned char>(c)) || c == '_' ||
           c == '-' || c == '.';
}

/**
 * The whole-document lexer. Running it up front keeps the parser's
 * error paths trivial, and the token count is bounded by the input
 * cap checked before lexing starts.
 */
Result<std::vector<Token>>
lexCampaign(std::string_view text)
{
    std::vector<Token> tokens;
    std::size_t line = 1;
    std::size_t at = 0;
    while (at < text.size()) {
        const char c = text[at];
        if (c == '\n') {
            ++line;
            ++at;
            continue;
        }
        if (std::isspace(static_cast<unsigned char>(c))) {
            ++at;
            continue;
        }
        if (c == '#') { // comment to end of line
            while (at < text.size() && text[at] != '\n')
                ++at;
            continue;
        }
        if (c == '{' || c == '}' || c == ';' || c == ',') {
            tokens.push_back({TokKind::Punct, std::string(1, c), line});
            ++at;
            continue;
        }
        if (c == '"') {
            const std::size_t start = ++at;
            while (at < text.size() && text[at] != '"' &&
                   text[at] != '\n')
                ++at;
            if (at >= text.size() || text[at] != '"')
                return lineError(line, "unterminated string");
            if (at - start > kMaxCampaignToken)
                return Status::resourceLimit(
                    "line " + std::to_string(line) +
                    ": string longer than " +
                    std::to_string(kMaxCampaignToken) + " bytes");
            tokens.push_back({TokKind::String,
                              std::string(text.substr(start, at - start)),
                              line});
            ++at;
            continue;
        }
        if (isIdentChar(c)) {
            const std::size_t start = at;
            while (at < text.size() && isIdentChar(text[at]))
                ++at;
            if (at - start > kMaxCampaignToken)
                return Status::resourceLimit(
                    "line " + std::to_string(line) +
                    ": token longer than " +
                    std::to_string(kMaxCampaignToken) + " bytes");
            tokens.push_back({TokKind::Ident,
                              std::string(text.substr(start, at - start)),
                              line});
            continue;
        }
        return lineError(line, std::string("unexpected character '") +
                                   c + "'");
    }
    tokens.push_back({TokKind::End, "<end of file>", line});
    return tokens;
}

/** Recursive-descent parser over the token stream. */
class Parser
{
  public:
    explicit Parser(std::vector<Token> stream)
        : tokens(std::move(stream))
    {}

    Result<CampaignSpec> parse();

  private:
    const Token &peek() const { return tokens[at]; }
    const Token &next() { return tokens[std::min(at++, tokens.size() - 1)]; }

    Status expectPunct(char c);
    Status expectKeyword(const char *word);
    Result<std::string> expectIdent(const char *what);
    Result<std::string> expectString(const char *what);
    Result<std::uint64_t> expectSize(const char *what);
    Result<std::uint64_t> expectNumber(const char *what);

    Status parseStatement(CampaignSpec &spec);
    Status parseTrace(CampaignSpec &spec);
    Status parseModels(CampaignSpec &spec);
    Status parseSizes(CampaignSpec &spec);
    Status parseLines(CampaignSpec &spec);
    Status parseOutput(CampaignSpec &spec);

    Status validate(CampaignSpec &spec) const;

    std::vector<Token> tokens;
    std::size_t at = 0;
};

Status
Parser::expectPunct(char c)
{
    const Token &token = next();
    if (token.kind != TokKind::Punct || token.text[0] != c)
        return lineError(token.line, std::string("expected '") + c +
                                         "', got '" + token.text + "'");
    return Status();
}

Status
Parser::expectKeyword(const char *word)
{
    const Token &token = next();
    if (token.kind != TokKind::Ident || token.text != word)
        return lineError(token.line, std::string("expected '") + word +
                                         "', got '" + token.text + "'");
    return Status();
}

Result<std::string>
Parser::expectIdent(const char *what)
{
    const Token &token = next();
    if (token.kind != TokKind::Ident)
        return lineError(token.line, std::string("expected ") + what +
                                         ", got '" + token.text + "'");
    return token.text;
}

Result<std::string>
Parser::expectString(const char *what)
{
    const Token &token = next();
    if (token.kind != TokKind::String)
        return lineError(token.line,
                         std::string("expected a quoted ") + what +
                             ", got '" + token.text + "'");
    if (token.text.empty())
        return lineError(token.line,
                         std::string("empty ") + what);
    return token.text;
}

Result<std::uint64_t>
Parser::expectSize(const char *what)
{
    const Token &token = next();
    if (token.kind == TokKind::Ident) {
        if (const auto parsed = parseSize(token.text))
            return *parsed;
    }
    return lineError(token.line, std::string("expected a ") + what +
                                     " like 4, 16KB; got '" +
                                     token.text + "'");
}

Result<std::uint64_t>
Parser::expectNumber(const char *what)
{
    const Token &token = next();
    if (token.kind == TokKind::Ident &&
        !token.text.empty() &&
        std::all_of(token.text.begin(), token.text.end(), [](char c) {
            return std::isdigit(static_cast<unsigned char>(c));
        }) &&
        token.text.size() <= 12) {
        return std::strtoull(token.text.c_str(), nullptr, 10);
    }
    return lineError(token.line, std::string("expected a ") + what +
                                     ", got '" + token.text + "'");
}

Status
Parser::parseTrace(CampaignSpec &spec)
{
    if (spec.traces.size() >= kMaxCampaignTraces)
        return Status::resourceLimit(
            "line " + std::to_string(peek().line) + ": more than " +
            std::to_string(kMaxCampaignTraces) + " traces");

    TraceSource source;
    Result<std::string> kind = expectIdent("a trace source kind "
                                           "(bench, file, import)");
    if (!kind.ok())
        return kind.status();
    const std::size_t kindLine = tokens[at - 1].line;
    if (kind.value() == "bench") {
        source.kind = SourceKind::Bench;
        Result<std::string> bench = expectIdent("a benchmark name");
        if (!bench.ok())
            return bench.status();
        source.spec = bench.value();
        source.label = source.spec;
    } else if (kind.value() == "file") {
        source.kind = SourceKind::File;
        Result<std::string> path = expectString("file path");
        if (!path.ok())
            return path.status();
        source.spec = path.value();
    } else if (kind.value() == "import") {
        source.kind = SourceKind::Import;
        Result<std::string> path = expectString("file path");
        if (!path.ok())
            return path.status();
        source.spec = path.value();
        if (Status s = expectKeyword("format"); !s.ok())
            return s;
        Result<std::string> format = expectIdent("an import format "
                                                 "(text, lackey)");
        if (!format.ok())
            return format.status();
        if (format.value() != "text" && format.value() != "lackey")
            return lineError(tokens[at - 1].line,
                             "unknown import format '" +
                                 format.value() +
                                 "' (want text or lackey)");
        source.format = format.value();
    } else {
        return lineError(kindLine, "unknown trace source '" +
                                       kind.value() +
                                       "' (want bench, file, import)");
    }

    // File and import sources default their label to the basename
    // with the extension stripped, overridable via `as`.
    if (source.label.empty()) {
        std::string base = source.spec;
        if (const auto slash = base.find_last_of('/');
            slash != std::string::npos)
            base = base.substr(slash + 1);
        if (const auto dot = base.find_last_of('.');
            dot != std::string::npos && dot > 0)
            base = base.substr(0, dot);
        source.label = base;
    }
    if (peek().kind == TokKind::Ident && peek().text == "as") {
        next();
        Result<std::string> label = expectIdent("a trace label");
        if (!label.ok())
            return label.status();
        source.label = label.value();
    }
    if (source.label.empty())
        return lineError(kindLine, "trace has an empty label");
    for (const TraceSource &existing : spec.traces)
        if (existing.label == source.label)
            return lineError(kindLine, "duplicate trace label '" +
                                           source.label + "'");
    spec.traces.push_back(std::move(source));
    return expectPunct(';');
}

Status
Parser::parseModels(CampaignSpec &spec)
{
    if (!spec.models.empty())
        return lineError(peek().line, "models already declared");
    for (;;) {
        Result<std::string> model =
            expectIdent("a model name (dm, dynex, opt)");
        if (!model.ok())
            return model.status();
        const std::size_t line = tokens[at - 1].line;
        if (model.value() != "dm" && model.value() != "dynex" &&
            model.value() != "opt")
            return lineError(line, "unknown model '" + model.value() +
                                       "' (want dm, dynex, opt)");
        if (spec.hasModel(model.value()))
            return lineError(line,
                             "duplicate model '" + model.value() + "'");
        spec.models.push_back(model.value());
        if (peek().kind == TokKind::Punct && peek().text == ",") {
            next();
            continue;
        }
        return expectPunct(';');
    }
}

Status
Parser::parseSizes(CampaignSpec &spec)
{
    if (!spec.sizes.empty())
        return lineError(peek().line, "sizes already declared");
    for (;;) {
        Result<std::uint64_t> size = expectSize("cache size");
        if (!size.ok())
            return size.status();
        if (spec.sizes.size() >= kMaxCampaignSizes)
            return Status::resourceLimit(
                "line " + std::to_string(tokens[at - 1].line) +
                ": more than " + std::to_string(kMaxCampaignSizes) +
                " cache sizes");
        spec.sizes.push_back(size.value());
        if (peek().kind == TokKind::Punct && peek().text == ",") {
            next();
            continue;
        }
        return expectPunct(';');
    }
}

Status
Parser::parseLines(CampaignSpec &spec)
{
    if (!spec.lines.empty())
        return lineError(peek().line, "lines already declared");
    for (;;) {
        Result<std::uint64_t> size = expectSize("line size");
        if (!size.ok())
            return size.status();
        const std::size_t line = tokens[at - 1].line;
        if (size.value() == 0 || size.value() > 4096)
            return lineError(line, "implausible line size");
        if (spec.lines.size() >= kMaxCampaignLines)
            return Status::resourceLimit(
                "line " + std::to_string(line) + ": more than " +
                std::to_string(kMaxCampaignLines) + " line sizes");
        spec.lines.push_back(
            static_cast<std::uint32_t>(size.value()));
        if (peek().kind == TokKind::Punct && peek().text == ",") {
            next();
            continue;
        }
        return expectPunct(';');
    }
}

Status
Parser::parseOutput(CampaignSpec &spec)
{
    Result<std::string> sink = expectIdent("an output sink "
                                           "(json, csv)");
    if (!sink.ok())
        return sink.status();
    const std::size_t line = tokens[at - 1].line;
    Result<std::string> path = expectString("output path");
    if (!path.ok())
        return path.status();
    if (sink.value() == "json") {
        if (!spec.jsonOut.empty())
            return lineError(line, "output json already declared");
        spec.jsonOut = path.value();
    } else if (sink.value() == "csv") {
        if (!spec.csvOut.empty())
            return lineError(line, "output csv already declared");
        spec.csvOut = path.value();
    } else {
        return lineError(line, "unknown output sink '" + sink.value() +
                                   "' (want json or csv)");
    }
    return expectPunct(';');
}

Status
Parser::parseStatement(CampaignSpec &spec)
{
    Result<std::string> keyword = expectIdent("a statement keyword");
    if (!keyword.ok())
        return keyword.status();
    const std::size_t line = tokens[at - 1].line;
    const std::string &word = keyword.value();
    if (word == "trace")
        return parseTrace(spec);
    if (word == "models")
        return parseModels(spec);
    if (word == "sizes")
        return parseSizes(spec);
    if (word == "lines")
        return parseLines(spec);
    if (word == "output")
        return parseOutput(spec);
    if (word == "refs") {
        Result<std::uint64_t> refs = expectNumber("reference count");
        if (!refs.ok())
            return refs.status();
        if (refs.value() > 1'000'000'000ull)
            return Status::resourceLimit(
                "line " + std::to_string(line) +
                ": refs budget over 1e9");
        spec.refs = refs.value();
        return expectPunct(';');
    }
    if (word == "sticky") {
        Result<std::uint64_t> sticky = expectNumber("sticky count");
        if (!sticky.ok())
            return sticky.status();
        if (sticky.value() == 0 || sticky.value() > 255)
            return lineError(line, "sticky must be 1..255");
        spec.stickyMax = static_cast<std::uint8_t>(sticky.value());
        return expectPunct(';');
    }
    if (word == "engine") {
        Result<std::string> engine =
            expectIdent("a replay engine (kernel, per-leg)");
        if (!engine.ok())
            return engine.status();
        const std::optional<ReplayEngine> parsed =
            parseReplayEngine(engine.value());
        if (!parsed)
            return lineError(tokens[at - 1].line,
                             "unknown replay engine '" +
                                 engine.value() +
                                 "' (want kernel, per-leg)");
        spec.engine = *parsed;
        return expectPunct(';');
    }
    return lineError(line, "unknown statement '" + word + "'");
}

Status
Parser::validate(CampaignSpec &spec) const
{
    if (spec.traces.empty())
        return Status::corruptInput(
            "campaign declares no traces (add a `trace` statement)");
    if (spec.models.empty())
        spec.models = {"dm", "dynex", "opt"};
    if (spec.sizes.empty())
        spec.sizes = paperCacheSizes();
    if (spec.lines.empty())
        spec.lines = {16};

    const Status axis = validateSweepAxis(spec.sizes, spec.lines[0]);
    if (!axis.ok())
        return axis;
    for (const std::uint32_t line : spec.lines) {
        if (!isPowerOfTwo(line))
            return Status::corruptInput(
                "line size " + std::to_string(line) +
                " is not a power of two");
        if (line > spec.sizes.front())
            return Status::corruptInput(
                "line size " + std::to_string(line) +
                " exceeds the smallest cache size " +
                std::to_string(spec.sizes.front()));
    }
    return Status();
}

Result<CampaignSpec>
Parser::parse()
{
    if (Status s = expectKeyword("campaign"); !s.ok())
        return s;
    Result<std::string> name = expectString("campaign name");
    if (!name.ok())
        return name.status();
    if (Status s = expectPunct('{'); !s.ok())
        return s;

    CampaignSpec spec;
    spec.name = name.value();
    while (!(peek().kind == TokKind::Punct && peek().text == "}")) {
        if (peek().kind == TokKind::End)
            return lineError(peek().line,
                             "unexpected end of file (missing '}')");
        if (Status s = parseStatement(spec); !s.ok())
            return s;
    }
    next(); // consume '}'
    if (peek().kind != TokKind::End)
        return lineError(peek().line, "trailing input after '}'");
    if (Status s = validate(spec); !s.ok())
        return s;
    return spec;
}

} // namespace

bool
CampaignSpec::hasModel(const std::string &model) const
{
    return std::find(models.begin(), models.end(), model) !=
           models.end();
}

Result<CampaignSpec>
parseCampaign(std::string_view text)
{
    if (text.size() > kMaxCampaignBytes)
        return Status::resourceLimit(
            "campaign document of " + std::to_string(text.size()) +
            " bytes exceeds the cap of " +
            std::to_string(kMaxCampaignBytes));
    Result<std::vector<Token>> tokens = lexCampaign(text);
    if (!tokens.ok())
        return tokens.status();
    Parser parser(std::move(tokens).value());
    return parser.parse();
}

Result<CampaignSpec>
parseCampaignFile(const std::string &path)
{
    std::ifstream in(path);
    if (!in)
        return Status::ioError("cannot open " + path + ": " +
                               std::strerror(errno));
    std::ostringstream text;
    text << in.rdbuf();
    if (in.bad())
        return Status::ioError("cannot read " + path + ": " +
                               std::strerror(errno));
    Result<CampaignSpec> spec = parseCampaign(text.str());
    if (!spec.ok())
        return spec.status().withContext(path);
    return spec;
}

} // namespace workload
} // namespace dynex

#include "litmus/parser.h"

#include <cctype>

#include "common/log.h"
#include "common/strutil.h"
#include "ptx/parser.h"

namespace gpulitmus::litmus {

namespace {

bool
fail(ParseError *error, int line, const std::string &msg)
{
    if (error) {
        error->message = msg;
        error->line = line;
    }
    return false;
}

/**
 * Parse one init-block entry:
 *   "0:.reg .s32 r0"       register declaration (init 0)
 *   "0:.reg .b64 r1 = x"   register bound to a location address
 *   "0:r1 = x" / "0:r1=3"  CPU-litmus-style register init
 *   "x = 1"                location init (global by default)
 *   "global x = 1"         location init with region
 *   "shared y"             location declaration
 */
bool
parseInitEntry(const std::string &entry, Test &test, ParseError *error,
               int line)
{
    std::string e = trim(entry);
    if (e.empty())
        return true;

    // Thread-qualified entries start with "<tid>:".
    size_t colon = e.find(':');
    bool thread_entry = false;
    int tid = 0;
    if (colon != std::string::npos) {
        auto maybe_tid = parseInt(e.substr(0, colon));
        if (maybe_tid) {
            thread_entry = true;
            tid = static_cast<int>(*maybe_tid);
            e = trim(e.substr(colon + 1));
        }
    }

    if (thread_entry) {
        // Strip ".reg" and type tokens.
        std::string reg;
        std::string rhs;
        size_t eq = e.find('=');
        std::string lhs = eq == std::string::npos ? e
                                                  : trim(e.substr(0, eq));
        if (eq != std::string::npos)
            rhs = trim(e.substr(eq + 1));
        auto words = splitWhitespace(lhs);
        for (const auto &w : words) {
            if (w == ".reg" || (w.size() > 1 && w[0] == '.'))
                continue; // declaration keyword or type
            reg = w;
        }
        if (reg.empty())
            return fail(error, line, "bad register entry '" + entry +
                                         "'");
        if (rhs.empty()) {
            // Pure declaration; implicit zero init needs no record.
            return true;
        }
        if (auto v = parseInt(rhs)) {
            test.regInits.push_back({tid, reg, false, "", *v});
        } else {
            test.regInits.push_back({tid, reg, true, rhs, 0});
        }
        return true;
    }

    // Location entry, optionally prefixed with a region keyword.
    MemSpace space = MemSpace::Global;
    auto words = splitWhitespace(e);
    size_t idx = 0;
    if (!words.empty() &&
        (words[0] == "global" || words[0] == "shared")) {
        space = words[0] == "global" ? MemSpace::Global
                                     : MemSpace::Shared;
        ++idx;
    }
    std::string rest;
    for (size_t i = idx; i < words.size(); ++i)
        rest += words[i];
    if (rest.empty())
        return fail(error, line, "empty init entry");
    size_t eq = rest.find('=');
    std::string name = eq == std::string::npos ? rest
                                               : rest.substr(0, eq);
    int64_t value = 0;
    if (eq != std::string::npos) {
        auto v = parseInt(rest.substr(eq + 1));
        if (!v)
            return fail(error, line,
                        "bad location init '" + entry + "'");
        value = *v;
    }
    for (auto &l : test.locations) {
        if (l.name == name) {
            l.space = space;
            l.init = value;
            return true;
        }
    }
    test.locations.push_back({name, space, value});
    return true;
}

/** Ensure a location exists, defaulting to global with init 0. */
void
touchLocation(Test &test, const std::string &name)
{
    for (const auto &l : test.locations) {
        if (l.name == name)
            return;
    }
    test.locations.push_back({name, MemSpace::Global, 0});
}

/** Parse a memory-map line "x: shared, y: global". */
bool
tryParseMemoryMap(const std::string &line, Test &test)
{
    auto entries = split(line, ',');
    if (entries.empty())
        return false;
    std::vector<std::pair<std::string, MemSpace>> updates;
    for (const auto &raw : entries) {
        auto colon = raw.find(':');
        if (colon == std::string::npos)
            return false;
        std::string name = trim(raw.substr(0, colon));
        std::string region = trim(raw.substr(colon + 1));
        MemSpace space;
        if (region == "shared")
            space = MemSpace::Shared;
        else if (region == "global")
            space = MemSpace::Global;
        else
            return false;
        if (name.empty() ||
            !std::isalpha(static_cast<unsigned char>(name[0])))
            return false;
        updates.emplace_back(name, space);
    }
    for (const auto &[name, space] : updates) {
        touchLocation(test, name);
        for (auto &l : test.locations) {
            if (l.name == name)
                l.space = space;
        }
    }
    return true;
}

} // anonymous namespace

std::optional<Test>
parseTest(const std::string &text, ParseError *error)
{
    Test test;
    auto lines = split(text, '\n');
    size_t li = 0;
    bool in_comment = false;
    auto nextLine = [&]() -> std::optional<std::string> {
        while (li < lines.size()) {
            std::string l = lines[li++];
            // Litmus-style (* ... *) comments, possibly multi-line.
            std::string stripped;
            for (size_t i = 0; i < l.size();) {
                if (in_comment) {
                    auto close = l.find("*)", i);
                    if (close == std::string::npos) {
                        i = l.size();
                    } else {
                        in_comment = false;
                        i = close + 2;
                    }
                } else if (l.compare(i, 2, "(*") == 0) {
                    in_comment = true;
                    i += 2;
                } else {
                    stripped += l[i++];
                }
            }
            l = stripped;
            auto comment = l.find("//");
            if (comment != std::string::npos)
                l = l.substr(0, comment);
            l = trim(l);
            if (!l.empty())
                return l;
        }
        return std::nullopt;
    };

    // Header: arch + name.
    auto header = nextLine();
    if (!header) {
        if (error)
            error->message = "empty litmus file";
        return std::nullopt;
    }
    auto header_words = splitWhitespace(*header);
    if (header_words.size() < 2) {
        if (error) {
            error->message = "header must be '<arch> <name>'";
            error->line = static_cast<int>(li);
        }
        return std::nullopt;
    }
    test.arch = header_words[0];
    // Everything after the arch is the name: generated tests are
    // named by their cycle ("PodWW Rfe-dev PodRR Fre-dev"), which
    // must survive a print/reparse round trip.
    test.name = trim(header->substr(test.arch.size()));

    // Optional init block in braces, possibly spanning lines.
    auto line = nextLine();
    if (!line)
        return std::nullopt;
    if (!line->empty() && line->front() == '{') {
        std::string block = *line;
        while (block.find('}') == std::string::npos) {
            auto more = nextLine();
            if (!more) {
                if (error)
                    error->message = "unterminated init block";
                return std::nullopt;
            }
            block += " " + *more;
        }
        std::string inner =
            block.substr(1, block.find('}') - 1);
        for (const auto &entry : split(inner, ';')) {
            ParseError perr;
            if (!parseInitEntry(entry, test, &perr,
                                static_cast<int>(li))) {
                if (error)
                    *error = perr;
                return std::nullopt;
            }
        }
        line = nextLine();
        if (!line)
            return std::nullopt;
    }

    // Program table: first row holds thread names.
    if (line->find('|') == std::string::npos &&
        !startsWith(*line, "T0")) {
        if (error) {
            error->message = "expected thread header row";
            error->line = static_cast<int>(li);
        }
        return std::nullopt;
    }
    auto stripRow = [](std::string row) {
        row = trim(row);
        if (!row.empty() && row.back() == ';')
            row.pop_back();
        return row;
    };
    auto headers = split(stripRow(*line), '|');
    int nthreads = static_cast<int>(headers.size());
    std::vector<std::string> bodies(nthreads);
    // File line of each accumulated body row, per thread, so thread
    // parse errors and analysis findings can cite file:line.
    std::vector<std::vector<int>> bodyLines(nthreads);

    for (;;) {
        line = nextLine();
        if (!line)
            break;
        int rowLine = static_cast<int>(li);
        // Non-program trailer lines terminate the table.
        if (startsWith(*line, "ScopeTree") ||
            startsWith(*line, "exists") ||
            startsWith(*line, "~exists") ||
            startsWith(*line, "forall") ||
            startsWith(*line, "final:"))
            break;
        if (line->find('|') == std::string::npos &&
            line->find(':') != std::string::npos &&
            tryParseMemoryMap(*line, test))
            continue;
        auto cells = split(stripRow(*line), '|');
        for (int t = 0;
             t < nthreads && t < static_cast<int>(cells.size()); ++t) {
            std::string cell = trim(cells[t]);
            if (!cell.empty()) {
                bodies[t] += cell + "\n";
                bodyLines[t].push_back(rowLine);
            }
        }
    }

    for (int t = 0; t < nthreads; ++t) {
        ptx::ParseError perr;
        auto prog = ptx::parseThread(bodies[t], &perr, &bodyLines[t]);
        if (!prog) {
            if (error) {
                error->message = "T" + std::to_string(t) + ": " +
                                 perr.message;
                error->line = perr.line;
                error->col = perr.col;
            }
            return std::nullopt;
        }
        test.program.threads.push_back(std::move(*prog));
    }

    // Collect locations referenced symbolically.
    for (const auto &th : test.program.threads) {
        for (const auto &i : th.instrs) {
            if (i.isMemAccess() && i.addr.isSym())
                touchLocation(test, i.addr.sym);
        }
    }
    for (const auto &r : test.regInits) {
        if (r.isLocAddress)
            touchLocation(test, r.loc);
    }

    // Trailer: scope tree, memory map, condition — in any order.
    bool have_cond = false;
    while (line) {
        if (startsWith(*line, "ScopeTree")) {
            auto tree = ScopeTree::parse(*line);
            if (!tree) {
                if (error)
                    error->message = "bad scope tree '" + *line + "'";
                return std::nullopt;
            }
            test.scopeTree = std::move(*tree);
        } else if (startsWith(*line, "exists") ||
                   startsWith(*line, "~exists") ||
                   startsWith(*line, "forall") ||
                   startsWith(*line, "final:")) {
            auto qc = parseQuantifiedCondition(*line);
            if (!qc) {
                if (error)
                    error->message = "bad condition '" + *line + "'";
                return std::nullopt;
            }
            test.quantifier = qc->first;
            test.condition = std::move(qc->second);
            have_cond = true;
        } else if (tryParseMemoryMap(*line, test)) {
            // handled
        } else {
            if (error)
                error->message = "unexpected line '" + *line + "'";
            return std::nullopt;
        }
        line = nextLine();
    }

    if (!have_cond) {
        if (error)
            error->message = "missing final condition";
        return std::nullopt;
    }
    if (test.scopeTree.numThreads() == 0)
        test.scopeTree = ScopeTree::interCta(nthreads);
    if (test.scopeTree.numThreads() != nthreads) {
        if (error)
            error->message = "scope tree thread count mismatch";
        return std::nullopt;
    }

    for (const std::string &bad :
         {test.limitError(), test.validationError()}) {
        if (!bad.empty()) {
            if (error)
                error->message = bad;
            return std::nullopt;
        }
    }
    return test;
}

} // namespace gpulitmus::litmus

#include "litmus/test.h"

#include <set>

#include "common/log.h"
#include "common/strutil.h"
#include "ptx/parser.h"

namespace gpulitmus::litmus {

std::string
toString(MemSpace s)
{
    return s == MemSpace::Global ? "global" : "shared";
}

const LocationDef *
Test::findLocation(const std::string &name) const
{
    for (const auto &l : locations) {
        if (l.name == name)
            return &l;
    }
    return nullptr;
}

int64_t
Test::addressOf(const std::string &name) const
{
    for (size_t i = 0; i < locations.size(); ++i) {
        if (locations[i].name == name) {
            int64_t base = locations[i].space == MemSpace::Global
                               ? globalBase
                               : sharedBase;
            return base + locStride * static_cast<int64_t>(i);
        }
    }
    panic("test '%s' has no location '%s'", this->name.c_str(),
          name.c_str());
}

std::optional<std::string>
Test::locationAt(int64_t addr) const
{
    for (size_t i = 0; i < locations.size(); ++i) {
        if (addressOf(locations[i].name) == addr)
            return locations[i].name;
    }
    return std::nullopt;
}

std::optional<MemSpace>
Test::spaceOf(int64_t addr) const
{
    auto loc = locationAt(addr);
    if (!loc)
        return std::nullopt;
    return findLocation(*loc)->space;
}

std::string
Test::str() const
{
    std::string out = arch + " " + name + "\n";
    out += "{";
    bool first = true;
    for (const auto &l : locations) {
        if (!first)
            out += " ";
        first = false;
        out += toString(l.space) + " " + l.name + "=" +
               std::to_string(l.init) + ";";
    }
    for (const auto &r : regInits) {
        out += " " + std::to_string(r.tid) + ":" + r.reg + "=";
        out += r.isLocAddress ? r.loc : std::to_string(r.value);
        out += ";";
    }
    out += "}\n";
    out += program.str();
    out += "ScopeTree(" + scopeTree.str() + ")\n";
    out += toString(quantifier) + " (" + condition.str() + ")\n";
    return out;
}

std::vector<RegKey>
Test::observedRegs() const
{
    std::vector<RegKey> regs;
    condition.collectRegs(regs);
    return regs;
}

std::vector<std::string>
Test::observedLocs() const
{
    std::vector<std::string> locs;
    condition.collectLocs(locs);
    return locs;
}

std::string
Test::limitError() const
{
    if (locations.size() > static_cast<size_t>(maxLocations))
        return strprintf("test uses %zu locations; at most %d are"
                         " supported",
                         locations.size(), maxLocations);
    for (int t = 0; t < program.numThreads(); ++t) {
        // The registers the machine allocates for the thread: every
        // register an instruction reads or writes, plus its inits.
        std::set<std::string> regs;
        for (const auto &i : program.threads[t].instrs) {
            for (auto &r : i.regsRead())
                regs.insert(std::move(r));
            if (!i.dst.empty())
                regs.insert(i.dst);
        }
        for (const auto &r : regInits) {
            if (r.tid == t)
                regs.insert(r.reg);
        }
        if (regs.size() > static_cast<size_t>(maxRegisters))
            return strprintf("T%d uses %zu registers; at most %d are"
                             " supported",
                             t, regs.size(), maxRegisters);
    }
    return "";
}

std::string
Test::validationError() const
{
    if (program.numThreads() == 0)
        return "test has no threads";
    if (scopeTree.numThreads() != program.numThreads())
        return strprintf("scope tree covers %d threads but program has"
                         " %d",
                         scopeTree.numThreads(), program.numThreads());

    std::set<std::string> loc_names;
    for (const auto &l : locations) {
        if (!loc_names.insert(l.name).second)
            return strprintf("duplicate location '%s'", l.name.c_str());
    }

    for (const auto &r : regInits) {
        if (r.tid < 0 || r.tid >= program.numThreads())
            return strprintf("register init for bad thread %d", r.tid);
        if (r.isLocAddress && !loc_names.count(r.loc))
            return strprintf("register %s bound to unknown location"
                             " '%s'",
                             r.reg.c_str(), r.loc.c_str());
    }

    for (int t = 0; t < program.numThreads(); ++t) {
        const auto &thread = program.threads[t];
        for (const auto &i : thread.instrs) {
            if (i.isMemAccess() && i.addr.isSym() &&
                !loc_names.count(i.addr.sym))
                return strprintf("T%d accesses unknown location '%s'",
                                 t, i.addr.sym.c_str());
            if (i.op == ptx::Opcode::Bra && !thread.labels.count(i.target))
                return strprintf("T%d branches to undefined label '%s'",
                                 t, i.target.c_str());
        }
    }
    return "";
}

void
Test::validate() const
{
    std::string error = validationError();
    if (!error.empty())
        fatal("test '%s': %s", name.c_str(), error.c_str());
}

TestBuilder::TestBuilder(std::string name)
{
    test_.name = std::move(name);
}

TestBuilder &
TestBuilder::global(const std::string &loc, int64_t init)
{
    test_.locations.push_back({loc, MemSpace::Global, init});
    return *this;
}

TestBuilder &
TestBuilder::shared(const std::string &loc, int64_t init)
{
    test_.locations.push_back({loc, MemSpace::Shared, init});
    return *this;
}

TestBuilder &
TestBuilder::thread(const std::string &ptx_text)
{
    ptx::ParseError err;
    auto prog = ptx::parseThread(ptx_text, &err);
    if (!prog)
        fatal("test '%s': %s", test_.name.c_str(), err.message.c_str());
    test_.program.threads.push_back(std::move(*prog));
    return *this;
}

TestBuilder &
TestBuilder::thread(ptx::ThreadProgram prog)
{
    test_.program.threads.push_back(std::move(prog));
    return *this;
}

TestBuilder &
TestBuilder::regVal(int tid, const std::string &reg, int64_t value)
{
    test_.regInits.push_back({tid, reg, false, "", value});
    return *this;
}

TestBuilder &
TestBuilder::regLoc(int tid, const std::string &reg,
                    const std::string &loc)
{
    test_.regInits.push_back({tid, reg, true, loc, 0});
    return *this;
}

TestBuilder &
TestBuilder::intraWarp()
{
    test_.scopeTree =
        ScopeTree::intraWarp(test_.program.numThreads());
    scope_set_ = true;
    return *this;
}

TestBuilder &
TestBuilder::intraCta()
{
    test_.scopeTree = ScopeTree::intraCta(test_.program.numThreads());
    scope_set_ = true;
    return *this;
}

TestBuilder &
TestBuilder::interCta()
{
    test_.scopeTree = ScopeTree::interCta(test_.program.numThreads());
    scope_set_ = true;
    return *this;
}

TestBuilder &
TestBuilder::scope(ScopeTree tree)
{
    test_.scopeTree = std::move(tree);
    scope_set_ = true;
    return *this;
}

TestBuilder &
TestBuilder::exists(const std::string &cond)
{
    auto c = parseCondition(cond);
    if (!c)
        fatal("test '%s': bad condition '%s'", test_.name.c_str(),
              cond.c_str());
    test_.quantifier = Quantifier::Exists;
    test_.condition = std::move(*c);
    return *this;
}

TestBuilder &
TestBuilder::notExists(const std::string &cond)
{
    exists(cond);
    test_.quantifier = Quantifier::NotExists;
    return *this;
}

TestBuilder &
TestBuilder::forall(const std::string &cond)
{
    exists(cond);
    test_.quantifier = Quantifier::Forall;
    return *this;
}

Test
TestBuilder::build()
{
    if (!scope_set_) {
        // Default: the paper's most common configuration, one thread
        // per CTA.
        test_.scopeTree =
            ScopeTree::interCta(test_.program.numThreads());
    }
    test_.validate();
    return test_;
}

} // namespace gpulitmus::litmus

#include "cat/cat.h"

#include <algorithm>
#include <cctype>
#include <map>
#include <tuple>

#include "common/log.h"
#include "common/strutil.h"

namespace gpulitmus::cat {

using axiom::Execution;
using axiom::Relation;

namespace {

// ---------------------------------------------------------------------
// Lexer
// ---------------------------------------------------------------------

enum class Tok {
    Ident,
    Let,
    Acyclic,
    Irreflexive,
    Empty,
    As,
    Eq,
    Bar,
    Amp,
    Backslash,
    Semi,
    Plus,
    Star,
    Question,
    Inverse, // ^-1
    LParen,
    RParen,
    Comma,
    End,
};

struct Token
{
    Tok kind = Tok::End;
    std::string text;
    int line = 1;
};

class Lexer
{
  public:
    explicit Lexer(const std::string &src) : src_(src) { advance(); }

    const Token &peek() const { return tok_; }

    Token
    take()
    {
        Token t = tok_;
        advance();
        return t;
    }

    bool
    takeIf(Tok kind)
    {
        if (tok_.kind == kind) {
            advance();
            return true;
        }
        return false;
    }

  private:
    void
    advance()
    {
        skipTrivia();
        tok_.line = line_;
        if (pos_ >= src_.size()) {
            tok_ = Token{Tok::End, "", line_};
            return;
        }
        char c = src_[pos_];
        auto simple = [&](Tok k, const char *text, size_t len) {
            tok_ = Token{k, text, line_};
            pos_ += len;
        };
        switch (c) {
          case '|': return simple(Tok::Bar, "|", 1);
          case '&': return simple(Tok::Amp, "&", 1);
          case '\\': return simple(Tok::Backslash, "\\", 1);
          case ';': return simple(Tok::Semi, ";", 1);
          case '+': return simple(Tok::Plus, "+", 1);
          case '*': return simple(Tok::Star, "*", 1);
          case '?': return simple(Tok::Question, "?", 1);
          case '(': return simple(Tok::LParen, "(", 1);
          case ')': return simple(Tok::RParen, ")", 1);
          case ',': return simple(Tok::Comma, ",", 1);
          case '=': return simple(Tok::Eq, "=", 1);
          case '^':
            if (src_.compare(pos_, 3, "^-1") == 0)
                return simple(Tok::Inverse, "^-1", 3);
            break;
          default:
            break;
        }
        if (std::isalnum(static_cast<unsigned char>(c)) || c == '_') {
            size_t start = pos_;
            while (pos_ < src_.size()) {
                char d = src_[pos_];
                if (std::isalnum(static_cast<unsigned char>(d)) ||
                    d == '_' || d == '.' ||
                    (d == '-' &&
                     pos_ + 1 < src_.size() &&
                     (std::isalnum(static_cast<unsigned char>(
                          src_[pos_ + 1])) ||
                      src_[pos_ + 1] == '_'))) {
                    ++pos_;
                } else {
                    break;
                }
            }
            std::string word = src_.substr(start, pos_ - start);
            if (word == "let")
                tok_ = Token{Tok::Let, word, line_};
            else if (word == "acyclic")
                tok_ = Token{Tok::Acyclic, word, line_};
            else if (word == "irreflexive")
                tok_ = Token{Tok::Irreflexive, word, line_};
            else if (word == "empty")
                tok_ = Token{Tok::Empty, word, line_};
            else if (word == "as")
                tok_ = Token{Tok::As, word, line_};
            else
                tok_ = Token{Tok::Ident, word, line_};
            return;
        }
        // Unknown character: surface as an Ident token the parser
        // will reject with a line number.
        tok_ = Token{Tok::Ident, std::string(1, c), line_};
        ++pos_;
    }

    void
    skipTrivia()
    {
        for (;;) {
            if (pos_ >= src_.size())
                return;
            char c = src_[pos_];
            if (c == '\n') {
                ++line_;
                ++pos_;
            } else if (std::isspace(static_cast<unsigned char>(c))) {
                ++pos_;
            } else if (src_.compare(pos_, 2, "//") == 0) {
                while (pos_ < src_.size() && src_[pos_] != '\n')
                    ++pos_;
            } else if (src_.compare(pos_, 2, "(*") == 0) {
                pos_ += 2;
                while (pos_ < src_.size() &&
                       src_.compare(pos_, 2, "*)") != 0) {
                    if (src_[pos_] == '\n')
                        ++line_;
                    ++pos_;
                }
                pos_ += 2;
            } else {
                return;
            }
        }
    }

    const std::string &src_;
    size_t pos_ = 0;
    int line_ = 1;
    Token tok_;
};

// ---------------------------------------------------------------------
// AST
// ---------------------------------------------------------------------

struct Expr;
using ExprPtr = std::shared_ptr<const Expr>;

struct Expr
{
    enum class Kind {
        Name,
        Union,
        Inter,
        Diff,
        Seq,
        Plus,
        Star,
        Maybe,
        Inverse,
        App,
    };

    Kind kind;
    std::string name;           // Name / App callee
    std::vector<ExprPtr> args;  // App arguments
    ExprPtr lhs, rhs;           // binary / unary (lhs only)
    int line = 0;
};

enum class CheckKind { Acyclic, Irreflexive, Empty };

struct Stmt
{
    enum class Kind { Let, Check };

    Kind kind;
    // Let
    std::string name;
    std::vector<std::string> params;
    // Check
    CheckKind check = CheckKind::Acyclic;
    std::string checkName;

    ExprPtr expr;
    int line = 0;
};

// ---------------------------------------------------------------------
// Parser
// ---------------------------------------------------------------------

class Parser
{
  public:
    explicit Parser(const std::string &src) : lex_(src) {}

    std::optional<std::vector<Stmt>>
    parse(CatError *error)
    {
        std::vector<Stmt> stmts;
        while (lex_.peek().kind != Tok::End) {
            auto s = parseStmt();
            if (!s) {
                if (error)
                    *error = err_;
                return std::nullopt;
            }
            stmts.push_back(std::move(*s));
        }
        return stmts;
    }

  private:
    std::nullopt_t
    fail(const std::string &msg)
    {
        if (err_.message.empty()) {
            err_.message = msg;
            err_.line = lex_.peek().line;
        }
        return std::nullopt;
    }

    std::optional<Stmt>
    parseStmt()
    {
        const Token &t = lex_.peek();
        if (t.kind == Tok::Let)
            return parseLet();
        if (t.kind == Tok::Acyclic || t.kind == Tok::Irreflexive ||
            t.kind == Tok::Empty)
            return parseCheck();
        return fail("expected 'let' or a check, got '" + t.text + "'");
    }

    std::optional<Stmt>
    parseLet()
    {
        Stmt s;
        s.kind = Stmt::Kind::Let;
        s.line = lex_.peek().line;
        lex_.take(); // let
        if (lex_.peek().kind != Tok::Ident)
            return fail("expected name after 'let'");
        s.name = lex_.take().text;
        if (lex_.takeIf(Tok::LParen)) {
            for (;;) {
                if (lex_.peek().kind != Tok::Ident)
                    return fail("expected parameter name");
                s.params.push_back(lex_.take().text);
                if (lex_.takeIf(Tok::Comma))
                    continue;
                if (lex_.takeIf(Tok::RParen))
                    break;
                return fail("expected ',' or ')' in parameter list");
            }
        }
        if (!lex_.takeIf(Tok::Eq))
            return fail("expected '=' in let");
        auto e = parseExpr();
        if (!e)
            return std::nullopt;
        s.expr = *e;
        return s;
    }

    std::optional<Stmt>
    parseCheck()
    {
        Stmt s;
        s.kind = Stmt::Kind::Check;
        s.line = lex_.peek().line;
        Token t = lex_.take();
        switch (t.kind) {
          case Tok::Acyclic: s.check = CheckKind::Acyclic; break;
          case Tok::Irreflexive: s.check = CheckKind::Irreflexive; break;
          case Tok::Empty: s.check = CheckKind::Empty; break;
          default: panic("unreachable");
        }
        auto e = parseExpr();
        if (!e)
            return std::nullopt;
        s.expr = *e;
        if (lex_.takeIf(Tok::As)) {
            if (lex_.peek().kind != Tok::Ident)
                return fail("expected name after 'as'");
            s.checkName = lex_.take().text;
        } else {
            s.checkName = t.text;
        }
        return s;
    }

    // Precedence (loosest to tightest): | then & then \ then ;
    std::optional<ExprPtr>
    parseExpr()
    {
        return parseBinary(0);
    }

    std::optional<ExprPtr>
    parseBinary(int level)
    {
        static const Tok ops[] = {Tok::Bar, Tok::Amp, Tok::Backslash,
                                  Tok::Semi};
        static const Expr::Kind kinds[] = {
            Expr::Kind::Union, Expr::Kind::Inter, Expr::Kind::Diff,
            Expr::Kind::Seq};
        if (level == 4)
            return parsePostfix();
        auto lhs = parseBinary(level + 1);
        if (!lhs)
            return std::nullopt;
        while (lex_.peek().kind == ops[level]) {
            int line = lex_.take().line;
            auto rhs = parseBinary(level + 1);
            if (!rhs)
                return std::nullopt;
            auto e = std::make_shared<Expr>();
            e->kind = kinds[level];
            e->lhs = *lhs;
            e->rhs = *rhs;
            e->line = line;
            lhs = e;
        }
        return lhs;
    }

    std::optional<ExprPtr>
    parsePostfix()
    {
        auto base = parseAtom();
        if (!base)
            return std::nullopt;
        for (;;) {
            Expr::Kind k;
            if (lex_.peek().kind == Tok::Plus)
                k = Expr::Kind::Plus;
            else if (lex_.peek().kind == Tok::Star)
                k = Expr::Kind::Star;
            else if (lex_.peek().kind == Tok::Question)
                k = Expr::Kind::Maybe;
            else if (lex_.peek().kind == Tok::Inverse)
                k = Expr::Kind::Inverse;
            else
                break;
            int line = lex_.take().line;
            auto e = std::make_shared<Expr>();
            e->kind = k;
            e->lhs = *base;
            e->line = line;
            base = ExprPtr(e);
        }
        return base;
    }

    std::optional<ExprPtr>
    parseAtom()
    {
        const Token &t = lex_.peek();
        if (t.kind == Tok::LParen) {
            lex_.take();
            auto inner = parseExpr();
            if (!inner)
                return std::nullopt;
            if (!lex_.takeIf(Tok::RParen))
                return fail("expected ')'");
            return inner;
        }
        if (t.kind != Tok::Ident)
            return fail("expected relation, got '" + t.text + "'");
        Token name = lex_.take();
        auto e = std::make_shared<Expr>();
        e->name = name.text;
        e->line = name.line;
        if (lex_.takeIf(Tok::LParen)) {
            e->kind = Expr::Kind::App;
            for (;;) {
                auto arg = parseExpr();
                if (!arg)
                    return std::nullopt;
                e->args.push_back(*arg);
                if (lex_.takeIf(Tok::Comma))
                    continue;
                if (lex_.takeIf(Tok::RParen))
                    break;
                return fail("expected ',' or ')' in arguments");
            }
        } else {
            e->kind = Expr::Kind::Name;
        }
        return ExprPtr(e);
    }

    Lexer lex_;
    CatError err_;
};

// ---------------------------------------------------------------------
// Compiled form
// ---------------------------------------------------------------------

/**
 * One instruction of a compiled model. A node computes one relation
 * of a candidate, from the execution or from earlier nodes, so the
 * node vector is in evaluation order.
 */
enum class Op : uint8_t {
    // Relations an Execution stores, read in place.
    Po,
    Rf,
    Co,
    Addr,
    Data,
    Ctrl,
    MembarCta,
    MembarGl,
    MembarSys,
    ScopeCta,
    ScopeGl,
    ScopeSys,
    // Relations computed from the events.
    Loc,
    Rmw,
    Id,
    Universal,
    Empty,
    // Operators over node a (and node b).
    External,
    Internal,
    Filter,
    Plus,
    Star,
    Maybe,
    Inverse,
    Union,
    Inter,
    Diff,
    Seq,
};

/** Event classes of the WW / WR / RW / RR filters. */
enum class EventClass : uint8_t { Reads, Writes };

struct Node
{
    Op op = Op::Empty;
    int a = -1;
    int b = -1;
    EventClass dom = EventClass::Reads; ///< Filter only
    EventClass rng = EventClass::Reads; ///< Filter only
};

struct CompiledCheck
{
    CheckKind kind = CheckKind::Acyclic;
    std::string name;
    int rel = -1; ///< node of the checked relation
    /** Nodes this check needs and no earlier check does, ascending. */
    std::vector<int> fresh;
};

/** A model compiled to nodes: every name resolved, every call of a
 * parameterised let inlined, equal nodes shared. */
struct Program
{
    std::vector<Node> nodes;
    std::vector<CompiledCheck> checks;
    /** The names relation() answers, first match wins: the first
     * parameterless let of each name, the base relations, then the
     * checks' "as" names. */
    std::vector<std::pair<std::string, int>> named;
};

/** The herd names of the base relations relation() answers. */
const char *const kBaseNames[] = {
    "po",  "po-loc", "rf",         "rfe",       "rfi",        "co",
    "coe", "coi",    "fr",         "fre",       "fri",        "addr",
    "data", "ctrl",  "membar.cta", "membar.gl", "membar.sys", "cta",
    "gl",  "sys",    "rmw",        "loc",       "id",         "ext",
    "int", "0",
};

class Compiler
{
  public:
    std::optional<Program>
    compile(const std::vector<Stmt> &stmts, CatError *error)
    {
        for (const auto &s : stmts) {
            if (s.kind == Stmt::Kind::Let && !s.params.empty()) {
                funcs_[s.name] = &s;
                continue;
            }
            int rel = expr(*s.expr);
            if (rel < 0) {
                if (error)
                    *error = err_;
                return std::nullopt;
            }
            if (s.kind == Stmt::Kind::Let) {
                scope_.emplace_back(s.name, rel);
                publish(s.name, rel);
            } else {
                prog_.checks.push_back({s.check, s.checkName, rel, {}});
            }
        }
        for (const char *b : kBaseNames)
            publish(b, base(b));
        for (const auto &c : prog_.checks)
            publish(c.name, c.rel);

        std::vector<char> seen(prog_.nodes.size(), 0);
        for (auto &c : prog_.checks) {
            collect(c.rel, seen, c.fresh);
            std::sort(c.fresh.begin(), c.fresh.end());
        }
        return std::move(prog_);
    }

  private:
    /** The node for (op, a, b, classes), shared when it exists. */
    int
    node(Op op, int a = -1, int b = -1,
         EventClass dom = EventClass::Reads,
         EventClass rng = EventClass::Reads)
    {
        auto key = std::make_tuple(op, a, b, dom, rng);
        auto it = interned_.find(key);
        if (it != interned_.end())
            return it->second;
        int id = static_cast<int>(prog_.nodes.size());
        prog_.nodes.push_back({op, a, b, dom, rng});
        interned_.emplace(key, id);
        return id;
    }

    /** The node of a base relation, or -1 when `name` is none. */
    int
    base(const std::string &name)
    {
        static const std::pair<const char *, Op> leaves[] = {
            {"po", Op::Po},
            {"rf", Op::Rf},
            {"co", Op::Co},
            {"addr", Op::Addr},
            {"data", Op::Data},
            {"ctrl", Op::Ctrl},
            {"membar.cta", Op::MembarCta},
            {"membar.gl", Op::MembarGl},
            {"membar.sys", Op::MembarSys},
            {"cta", Op::ScopeCta},
            {"gl", Op::ScopeGl},
            {"sys", Op::ScopeSys},
            {"loc", Op::Loc},
            {"rmw", Op::Rmw},
            {"id", Op::Id},
            {"0", Op::Empty},
        };
        for (const auto &[leaf, op] : leaves) {
            if (name == leaf)
                return node(op);
        }
        if (name == "po-loc")
            return node(Op::Inter, base("po"), base("loc"));
        if (name == "rfe" || name == "coe" || name == "fre")
            return node(Op::External, base(name.substr(0, 2)));
        if (name == "rfi" || name == "coi" || name == "fri")
            return node(Op::Internal, base(name.substr(0, 2)));
        if (name == "fr") {
            // rf^-1 ; co, less the write a read reads from.
            int rf_co = node(Op::Seq, node(Op::Inverse, base("rf")),
                             base("co"));
            return node(Op::Diff, rf_co, base("id"));
        }
        if (name == "ext")
            return node(Op::External, node(Op::Universal));
        if (name == "int")
            return node(Op::Diff,
                        node(Op::Internal, node(Op::Universal)),
                        base("id"));
        return -1;
    }

    /** Make `id` answer relation(name), unless a name came first. */
    void
    publish(const std::string &name, int id)
    {
        for (const auto &[known, _] : prog_.named) {
            if (known == name)
                return;
        }
        prog_.named.emplace_back(name, id);
    }

    int
    fail(const std::string &message, int line)
    {
        if (err_.message.empty()) {
            err_.message = message;
            err_.line = line;
        }
        return -1;
    }

    int
    expr(const Expr &e)
    {
        auto unary = [&](Op op) {
            int a = expr(*e.lhs);
            return a < 0 ? -1 : node(op, a);
        };
        auto binary = [&](Op op) {
            int a = expr(*e.lhs);
            int b = a < 0 ? -1 : expr(*e.rhs);
            return b < 0 ? -1 : node(op, a, b);
        };
        switch (e.kind) {
          case Expr::Kind::Name: {
            for (auto it = scope_.rbegin(); it != scope_.rend(); ++it) {
                if (it->first == e.name)
                    return it->second;
            }
            int b = base(e.name);
            if (b >= 0)
                return b;
            return fail("undefined relation '" + e.name + "'", e.line);
          }
          case Expr::Kind::Union: return binary(Op::Union);
          case Expr::Kind::Inter: return binary(Op::Inter);
          case Expr::Kind::Diff: return binary(Op::Diff);
          case Expr::Kind::Seq: return binary(Op::Seq);
          case Expr::Kind::Plus: return unary(Op::Plus);
          case Expr::Kind::Star: return unary(Op::Star);
          case Expr::Kind::Maybe: return unary(Op::Maybe);
          case Expr::Kind::Inverse: return unary(Op::Inverse);
          case Expr::Kind::App: return apply(e);
        }
        panic("unreachable");
    }

    /** A filter, or a parameterised let inlined here: its body sees
     * the bindings in scope at this call, as herd's do. */
    int
    apply(const Expr &e)
    {
        static const struct
        {
            const char *name;
            EventClass dom, rng;
        } filters[] = {
            {"WW", EventClass::Writes, EventClass::Writes},
            {"WR", EventClass::Writes, EventClass::Reads},
            {"RW", EventClass::Reads, EventClass::Writes},
            {"RR", EventClass::Reads, EventClass::Reads},
        };
        for (const auto &f : filters) {
            if (e.name != f.name)
                continue;
            if (e.args.size() != 1)
                return fail("filter '" + e.name +
                                "' takes one argument",
                            e.line);
            int a = expr(*e.args[0]);
            return a < 0 ? -1 : node(Op::Filter, a, -1, f.dom, f.rng);
        }
        auto it = funcs_.find(e.name);
        if (it == funcs_.end())
            return fail("undefined function '" + e.name + "'", e.line);
        const Stmt *def = it->second;
        if (def->params.size() != e.args.size())
            return fail(strprintf("'%s' expects %zu arguments, got %zu",
                                  e.name.c_str(), def->params.size(),
                                  e.args.size()),
                        e.line);
        if (std::find(inlining_.begin(), inlining_.end(), def) !=
            inlining_.end())
            return fail("recursive use of '" + e.name + "'", e.line);
        std::vector<int> args;
        for (const auto &arg : e.args) {
            args.push_back(expr(*arg));
            if (args.back() < 0)
                return -1;
        }
        size_t depth = scope_.size();
        for (size_t i = 0; i < args.size(); ++i)
            scope_.emplace_back(def->params[i], args[i]);
        inlining_.push_back(def);
        int body = expr(*def->expr);
        inlining_.pop_back();
        scope_.resize(depth);
        return body;
    }

    void
    collect(int id, std::vector<char> &seen, std::vector<int> &out)
    {
        if (id < 0 || seen[static_cast<size_t>(id)])
            return;
        seen[static_cast<size_t>(id)] = 1;
        const Node &n = prog_.nodes[static_cast<size_t>(id)];
        collect(n.a, seen, out);
        collect(n.b, seen, out);
        out.push_back(id);
    }

    Program prog_;
    std::map<std::tuple<Op, int, int, EventClass, EventClass>, int>
        interned_;
    /** Parameterless lets and the parameters of the calls being
     * inlined, innermost last. */
    std::vector<std::pair<std::string, int>> scope_;
    std::map<std::string, const Stmt *> funcs_;
    std::vector<const Stmt *> inlining_;
    CatError err_;
};

// ---------------------------------------------------------------------
// Evaluation
// ---------------------------------------------------------------------

/** Warshall's transitive closure of n rows, in place. */
void
closeTransitively(uint64_t *rows, int n)
{
    for (int k = 0; k < n; ++k) {
        for (int i = 0; i < n; ++i) {
            if ((rows[i] >> k) & 1)
                rows[i] |= rows[k];
        }
    }
}

/**
 * One candidate under evaluation: a row block per node, in a
 * per-thread workspace that grows to the largest (model, execution)
 * the thread has seen and then never allocates again.
 */
class Frame
{
  public:
    Frame(const Program &prog, const Execution &ex)
        : prog_(prog), ex_(ex), n_(ex.numEvents()),
          all_(n_ == 64 ? ~0ULL : (1ULL << n_) - 1)
    {
        thread_local std::vector<uint64_t> store;
        thread_local std::vector<const uint64_t *> rows;
        size_t need =
            (prog.nodes.size() + 1) * static_cast<size_t>(n_);
        if (store.size() < need)
            store.resize(need);
        if (rows.size() < prog.nodes.size())
            rows.resize(prog.nodes.size());
        store_ = store.data();
        rows_ = rows.data();
    }

    int size() const { return n_; }

    const uint64_t *rows(int id) const { return rows_[id]; }

    /** Compute the nodes `ids`, in order. */
    void
    run(const std::vector<int> &ids)
    {
        for (int id : ids)
            compute(id);
    }

    /** Compute nodes 0..last. */
    void
    runThrough(int last)
    {
        for (int id = 0; id <= last; ++id)
            compute(id);
    }

    bool
    holds(const CompiledCheck &c)
    {
        const uint64_t *r = rows_[c.rel];
        switch (c.kind) {
          case CheckKind::Acyclic: {
            uint64_t *t = scratch();
            std::copy(r, r + n_, t);
            closeTransitively(t, n_);
            for (int i = 0; i < n_; ++i) {
                if ((t[i] >> i) & 1)
                    return false;
            }
            return true;
          }
          case CheckKind::Irreflexive:
            for (int i = 0; i < n_; ++i) {
                if ((r[i] >> i) & 1)
                    return false;
            }
            return true;
          case CheckKind::Empty:
            for (int i = 0; i < n_; ++i) {
                if (r[i])
                    return false;
            }
            return true;
        }
        panic("unreachable");
    }

  private:
    uint64_t *
    scratch()
    {
        return store_ + prog_.nodes.size() * static_cast<size_t>(n_);
    }

    const Relation &
    stored(Op op) const
    {
        switch (op) {
          case Op::Po: return ex_.po;
          case Op::Rf: return ex_.rf;
          case Op::Co: return ex_.co;
          case Op::Addr: return ex_.addr;
          case Op::Data: return ex_.data;
          case Op::Ctrl: return ex_.ctrl;
          case Op::MembarCta: return ex_.membarCta;
          case Op::MembarGl: return ex_.membarGl;
          case Op::MembarSys: return ex_.membarSys;
          case Op::ScopeCta: return ex_.scopeCta;
          case Op::ScopeGl: return ex_.scopeGl;
          case Op::ScopeSys: return ex_.scopeSys;
          default: panic("not a stored relation");
        }
    }

    /** Events issued by the thread of event i (init writes share one
     * pseudo-thread), as a mask. */
    uint64_t
    sameThread(int i)
    {
        if (!haveThreads_) {
            for (int x = 0; x < n_; ++x) {
                uint64_t m = 0;
                for (int y = 0; y < n_; ++y) {
                    if (ex_.events[x].tid == ex_.events[y].tid)
                        m |= 1ULL << y;
                }
                threads_[x] = m;
            }
            haveThreads_ = true;
        }
        return threads_[i];
    }

    uint64_t
    eventClass(EventClass c)
    {
        if (!haveClasses_) {
            for (const auto &e : ex_.events) {
                if (e.isRead())
                    reads_ |= 1ULL << e.id;
                else if (e.isWrite())
                    writes_ |= 1ULL << e.id;
            }
            haveClasses_ = true;
        }
        return c == EventClass::Reads ? reads_ : writes_;
    }

    void
    compute(int id)
    {
        const Node &nd = prog_.nodes[static_cast<size_t>(id)];
        if (nd.op <= Op::ScopeSys) {
            const Relation &r = stored(nd.op);
            if (r.size() != n_)
                panic("relation size mismatch: %d vs %d", r.size(), n_);
            rows_[id] = r.rows();
            return;
        }
        uint64_t *out = store_ + static_cast<size_t>(id) *
                                     static_cast<size_t>(n_);
        rows_[id] = out;
        const uint64_t *a = nd.a >= 0 ? rows_[nd.a] : nullptr;
        const uint64_t *b = nd.b >= 0 ? rows_[nd.b] : nullptr;
        const int n = n_;
        switch (nd.op) {
          case Op::Loc:
            std::fill(out, out + n, 0);
            for (int x = 0; x < n; ++x) {
                const auto &ex = ex_.events[x];
                for (int y = x + 1; y < n; ++y) {
                    const auto &ey = ex_.events[y];
                    if (!ex.isFence() && !ey.isFence() &&
                        ex.id != ey.id && ex.loc == ey.loc) {
                        out[ex.id] |= 1ULL << ey.id;
                        out[ey.id] |= 1ULL << ex.id;
                    }
                }
            }
            return;
          case Op::Rmw:
            std::fill(out, out + n, 0);
            for (const auto &e : ex_.events) {
                if (e.isRead() && e.rmwPartner >= 0)
                    out[e.id] |= 1ULL << e.rmwPartner;
            }
            return;
          case Op::Id:
            for (int i = 0; i < n; ++i)
                out[i] = 1ULL << i;
            return;
          case Op::Universal:
            std::fill(out, out + n, all_);
            return;
          case Op::Empty:
            std::fill(out, out + n, 0);
            return;
          case Op::External:
            for (int i = 0; i < n; ++i)
                out[i] = a[i] & ~sameThread(i);
            return;
          case Op::Internal:
            for (int i = 0; i < n; ++i)
                out[i] = a[i] & sameThread(i);
            return;
          case Op::Filter: {
            uint64_t dom = eventClass(nd.dom);
            uint64_t rng = eventClass(nd.rng);
            for (int i = 0; i < n; ++i)
                out[i] = ((dom >> i) & 1) ? a[i] & rng : 0;
            return;
          }
          case Op::Plus:
            std::copy(a, a + n, out);
            closeTransitively(out, n);
            return;
          case Op::Star:
            std::copy(a, a + n, out);
            closeTransitively(out, n);
            for (int i = 0; i < n; ++i)
                out[i] |= 1ULL << i;
            return;
          case Op::Maybe:
            for (int i = 0; i < n; ++i)
                out[i] = a[i] | (1ULL << i);
            return;
          case Op::Inverse:
            std::fill(out, out + n, 0);
            for (int i = 0; i < n; ++i) {
                for (uint64_t row = a[i]; row; row &= row - 1)
                    out[__builtin_ctzll(row)] |= 1ULL << i;
            }
            return;
          case Op::Union:
            for (int i = 0; i < n; ++i)
                out[i] = a[i] | b[i];
            return;
          case Op::Inter:
            for (int i = 0; i < n; ++i)
                out[i] = a[i] & b[i];
            return;
          case Op::Diff:
            for (int i = 0; i < n; ++i)
                out[i] = a[i] & ~b[i];
            return;
          case Op::Seq:
            for (int i = 0; i < n; ++i) {
                uint64_t acc = 0;
                for (uint64_t row = a[i]; row; row &= row - 1)
                    acc |= b[__builtin_ctzll(row)];
                out[i] = acc;
            }
            return;
          default:
            panic("unreachable");
        }
    }

    const Program &prog_;
    const Execution &ex_;
    const int n_;
    const uint64_t all_;
    uint64_t *store_ = nullptr;
    const uint64_t **rows_ = nullptr;
    bool haveThreads_ = false;
    uint64_t threads_[axiom::kMaxEvents] = {};
    bool haveClasses_ = false;
    uint64_t reads_ = 0;
    uint64_t writes_ = 0;
};

const char *
kindName(CheckKind kind)
{
    switch (kind) {
      case CheckKind::Acyclic: return "acyclic";
      case CheckKind::Irreflexive: return "irreflexive";
      case CheckKind::Empty: return "empty";
    }
    panic("unreachable");
}

} // anonymous namespace

struct Model::Impl
{
    Program prog;
};

std::string
ModelResult::firstFailure() const
{
    for (const auto &c : checks) {
        if (!c.passed)
            return c.name;
    }
    return "";
}

std::optional<Model>
Model::parse(const std::string &source, const std::string &name,
             CatError *error)
{
    Parser parser(source);
    auto stmts = parser.parse(error);
    if (!stmts)
        return std::nullopt;
    auto prog = Compiler().compile(*stmts, error);
    if (!prog)
        return std::nullopt;
    Model m;
    auto impl = std::make_shared<Impl>();
    impl->prog = std::move(*prog);
    m.impl_ = std::move(impl);
    m.name_ = name;
    return m;
}

Model
Model::parseOrDie(const std::string &source, const std::string &name)
{
    CatError err;
    auto m = parse(source, name, &err);
    if (!m)
        fatal("cat model '%s': %s (line %d)", name.c_str(),
              err.message.c_str(), err.line);
    return *m;
}

int
Model::firstFailedCheck(const axiom::Execution &ex) const
{
    const Program &prog = impl_->prog;
    Frame frame(prog, ex);
    for (size_t k = 0; k < prog.checks.size(); ++k) {
        frame.run(prog.checks[k].fresh);
        if (!frame.holds(prog.checks[k]))
            return static_cast<int>(k);
    }
    return -1;
}

ModelResult
Model::evaluate(const axiom::Execution &ex) const
{
    const Program &prog = impl_->prog;
    Frame frame(prog, ex);
    ModelResult result;
    result.allowed = true;
    for (const auto &c : prog.checks) {
        frame.run(c.fresh);
        CheckResult cr;
        cr.name = c.name;
        cr.kind = kindName(c.kind);
        cr.passed = frame.holds(c);
        if (!cr.passed && c.kind == CheckKind::Acyclic)
            cr.cycle = Relation::fromRows(frame.size(), frame.rows(c.rel))
                           .findCycle();
        result.allowed &= cr.passed;
        result.checks.push_back(std::move(cr));
    }
    return result;
}

std::optional<axiom::Relation>
Model::relation(const std::string &name,
                const axiom::Execution &ex) const
{
    const Program &prog = impl_->prog;
    for (const auto &[known, id] : prog.named) {
        if (known != name)
            continue;
        Frame frame(prog, ex);
        frame.runThrough(id);
        return Relation::fromRows(frame.size(), frame.rows(id));
    }
    return std::nullopt;
}

std::vector<std::string>
Model::checkNames() const
{
    std::vector<std::string> names;
    for (const auto &c : impl_->prog.checks)
        names.push_back(c.name);
    return names;
}

} // namespace gpulitmus::cat

#!/usr/bin/env python3
"""tempest_lint: domain-aware static analysis for Tempest.

Three checkers guard the invariants the bit-identity test gates
(goldens, warm-fork, kill/resume) rely on:

  checkpoint   Every class implementing saveState(StateWriter&) /
               loadState(StateReader&) must reference each non-static
               data member in *both* methods, in the same relative
               order, and the static sequence of serializer calls
               (w.u32/r.u32, ...) must match call-for-call between
               the two methods.  Members that are config-derived or
               rebuildable are exempted with an annotation on (or on
               the line above) their declaration:

                   int half_;  // ckpt:skip(derived: size_ / 2)

               Structure-of-arrays members serialized with a bulk
               blob write are annotated with their array group:

                   std::uint64_t* seq_;  // ckpt:bulk(iq-soa)

               The tag must trail the member on its own line (the
               above-the-line placement ckpt:skip accepts would
               bleed the group onto the next member).  A ckpt:bulk
               member must be written by a
               <param>.blob(...) call in *both* saveState and
               loadState; dropping one array of a group corrupts
               every array serialized after it, so the checker
               reports these with a group-aware diagnostic.

  determinism  Bans wall-clock and entropy sources and
               iteration-order hazards anywhere under src/:
               std::random_device, rand()/srand()/time()/clock()
               and friends, system/steady/high_resolution_clock,
               __rdtsc, iteration over std::unordered_map/set, and
               pointer-keyed std::map/std::set.  Measurement-only
               sites are exempted line-by-line:

                   t = std::chrono::steady_clock::now();  // det:allow(wall-clock metric only)

  hygiene      Headers must carry an include guard (or #pragma
               once), must not contain `using namespace`, and
               std::endl is banned under src/ (hot-path flush).

  lock         Lock discipline (DESIGN.md §17): every member
               annotated GUARDED_BY(m) in common/thread_annotations.hh
               vocabulary may only be referenced inside a scope that
               acquired m (MutexLock/lock_guard/unique_lock/
               scoped_lock) or inside a function annotated
               REQUIRES(m); calls to REQUIRES(m) functions must hold
               m.  This is the GCC-build / inside-lambda complement
               of clang's -Wthread-safety, which the thread-safety
               CI job runs for real.  Known approximations: guard
               and member matching is by name, not by object
               identity; bare (un-prefixed) member references are
               only checked in the declaring file and its .cc/.hh
               sibling (so locals shadowing a guarded name in other
               translation units cannot false-positive); manual
               mutex_.lock() calls are not modeled (the tree locks
               through RAII only).  Escapes: lint:allow(<reason>)
               on the offending line.

  protocol     Wire-schema drift (serve JSON protocol + fabric job
               protocol): for every encodeX with a parseX/decodeX
               in the same file, the JSON keys the encoder writes
               (msg["k"] = ...) must equal the keys the decoder
               reads (find("k") / field(doc, "k")), in the same
               relative order, and StateWriter/StateReader blob
               codecs must agree serializer-call-for-call.  A key
               intentionally read elsewhere (e.g. "op", consumed by
               the dispatch loop rather than the parser) is
               exempted with proto:skip(<key>: <reason>) on or near
               the function.

  chunks       Checkpoint chunk registry: chunkId("XXXX") FourCCs
               must be globally unique across the tree, and
               tools/lint/chunk_registry.json pins the serializer-
               call sequence of every function that writes through
               a StateWriter& (saveState methods, free helpers like
               saveActivity, the chunk writes inside the
               saveCheckpoint methods) against the current
               kCheckpointVersion — changing a sequence without
               bumping the version is a finding; after a bump,
               --update-chunk-registry re-baselines the registry.
               The version is the one the linted files define (a
               fixture may define its own), else the tree's.

Annotation grammar is enforced centrally: every ckpt:skip /
det:allow / lint:allow / proto:skip annotation must carry a
non-empty reason, and proto:skip must use the "key: reason" form.

Backends: the driver prefers libclang (clang.cindex) when importable
for accurate class/member/method extraction, and falls back to a
robust tokenizer-based C++ parser otherwise (the default in
environments without libclang).  Both feed the same analysis core;
determinism, hygiene, lock, protocol, and chunks are token-based in
either backend.

Usage:
  tempest_lint.py --all                      # lint the whole tree
  tempest_lint.py --checkpoint src/uarch/..  # one checker, some files
  tempest_lint.py --backend text fixture.cc  # force the text backend
  tempest_lint.py --update-chunk-registry    # re-baseline chunks

Exit status: 0 clean, 1 findings, 2 usage/internal error.
"""

import argparse
import json
import os
import re
import sys

# --------------------------------------------------------------------------
# Source scrubbing: blank out comments and literals (preserving line
# structure) and harvest lint annotations from the comment text.
# --------------------------------------------------------------------------

ANNOT_RE = re.compile(
    r"(ckpt:skip|ckpt:bulk|det:allow|lint:allow|proto:skip)"
    r"\(([^)]*)\)")


def scrub(text, keep_strings=False):
    """Return (scrubbed_text, annotations).

    Comments, string literals, and char literals are replaced with
    spaces so offsets and line numbers survive.  annotations maps a
    1-based line number to a list of (kind, reason) pairs found in
    comments on that line.  With keep_strings the string literals
    stay in place (the protocol checker reads JSON keys out of
    them); comments are still blanked either way.
    """
    out = []
    annotations = {}
    i, n, line = 0, len(text), 1

    def note_annotations(comment, start_line):
        cline = start_line
        for chunk in comment.split("\n"):
            for m in ANNOT_RE.finditer(chunk):
                annotations.setdefault(cline, []).append(
                    (m.group(1), m.group(2).strip()))
            cline += 1

    while i < n:
        c = text[i]
        if c == "/" and i + 1 < n and text[i + 1] == "/":
            j = text.find("\n", i)
            j = n if j < 0 else j
            note_annotations(text[i:j], line)
            out.append(" " * (j - i))
            i = j
        elif c == "/" and i + 1 < n and text[i + 1] == "*":
            j = text.find("*/", i + 2)
            j = n if j < 0 else j + 2
            note_annotations(text[i:j], line)
            seg = text[i:j]
            out.append("".join("\n" if ch == "\n" else " " for ch in seg))
            line += seg.count("\n")
            i = j
        elif c == '"':
            j = i + 1
            while j < n and text[j] != '"':
                j += 2 if text[j] == "\\" else 1
            j = min(j + 1, n)
            if keep_strings:
                out.append(text[i:j])
            else:
                out.append('""' + " " * (j - i - 2))
            i = j
        elif c == "'":
            # Digit separator (1'000) is not a literal.
            prev = text[i - 1] if i else ""
            nxt = text[i + 1] if i + 1 < n else ""
            if prev.isdigit() and (nxt.isdigit() or nxt.isalpha()):
                out.append(c)
                i += 1
                continue
            j = i + 1
            while j < n and text[j] != "'":
                j += 2 if text[j] == "\\" else 1
            j = min(j + 1, n)
            out.append("''" + " " * (j - i - 2))
            i = j
        else:
            out.append(c)
            if c == "\n":
                line += 1
            i += 1
    return "".join(out), annotations


TOKEN_RE = re.compile(r"[A-Za-z_]\w*|\d[\w.]*|::|->|.", re.S)


def tokenize(scrubbed):
    """Tokenize scrubbed C++ into (text, line) pairs, skipping
    whitespace and preprocessor directives."""
    toks = []
    for lineno, raw in enumerate(scrubbed.split("\n"), start=1):
        stripped = raw.lstrip()
        if stripped.startswith("#"):
            continue
        for m in TOKEN_RE.finditer(raw):
            t = m.group(0)
            if not t.strip():
                continue
            toks.append((t, lineno))
    return toks


def is_ident(t):
    return bool(re.match(r"[A-Za-z_]\w*$", t))


# --------------------------------------------------------------------------
# Thread-safety annotation macros (common/thread_annotations.hh).
# They are stripped from the token stream before any structural
# parsing (a GUARDED_BY(m) on a member would otherwise read as a
# function declaration to the member parser) and recorded so the
# lock-discipline checker can reconstruct guard relationships.
# --------------------------------------------------------------------------

TSA_PAREN_MACROS = {
    "CAPABILITY", "GUARDED_BY", "PT_GUARDED_BY", "REQUIRES",
    "REQUIRES_SHARED", "ACQUIRE", "ACQUIRE_SHARED", "RELEASE",
    "RELEASE_SHARED", "TRY_ACQUIRE", "EXCLUDES", "ACQUIRED_BEFORE",
    "ACQUIRED_AFTER", "ASSERT_CAPABILITY", "RETURN_CAPABILITY",
}

TSA_BARE_MACROS = {"SCOPED_CAPABILITY", "NO_THREAD_SAFETY_ANALYSIS"}


class TsaRecord:
    """One stripped thread-safety macro.

    idx is the position in the *stripped* token stream where the
    macro stood: stripped[idx - 1] is the token immediately before
    it (the member name for GUARDED_BY, usually the signature's
    closing paren for REQUIRES) and stripped[idx] the token after.
    """

    def __init__(self, macro, args, line, idx):
        self.macro = macro
        self.args = args  # token texts inside the macro's parens
        self.line = line
        self.idx = idx


def strip_tsa_macros(toks):
    """Return (stripped_toks, [TsaRecord])."""
    clean = []
    records = []
    i = 0
    n = len(toks)
    while i < n:
        t, ln = toks[i]
        if t in TSA_BARE_MACROS:
            records.append(TsaRecord(t, [], ln, len(clean)))
            i += 1
            continue
        if (t in TSA_PAREN_MACROS and i + 1 < n and
                toks[i + 1][0] == "("):
            depth = 0
            j = i + 1
            args = []
            while j < n:
                tt = toks[j][0]
                if tt == "(":
                    depth += 1
                elif tt == ")":
                    depth -= 1
                    if depth == 0:
                        break
                elif depth >= 1:
                    args.append(tt)
                j += 1
            records.append(TsaRecord(t, args, ln, len(clean)))
            i = j + 1
            continue
        clean.append((t, ln))
        i += 1
    return clean, records


def has_annotation(annotations, kind, first_line, last_line=None):
    """An annotation exempts its own line(s) and the line below it."""
    return annotation_value(annotations, kind, first_line,
                            last_line) is not None


def annotation_value(annotations, kind, first_line, last_line=None):
    """The annotation's parenthesized value, or None if absent.
    Same placement rules as has_annotation()."""
    last_line = last_line if last_line is not None else first_line
    for ln in range(first_line - 1, last_line + 1):
        for k, reason in annotations.get(ln, []):
            if k == kind:
                return reason
    return None


def same_line_annotation_value(annotations, kind, line):
    """Like annotation_value, but only the given line counts.
    ckpt:bulk uses this: group tags are trailing comments on the
    member they tag, so the above-the-line placement rule would
    bleed a group onto the next (unrelated) member."""
    for k, reason in annotations.get(line, []):
        if k == kind:
            return reason
    return None


# --------------------------------------------------------------------------
# Intermediate representation shared by both backends.
# --------------------------------------------------------------------------


class MethodBody:
    def __init__(self, path, param, toks, line):
        self.path = path
        self.param = param  # StateWriter/StateReader parameter name
        self.toks = toks    # [(text, line)] of the body, braces included
        self.line = line


class ClassInfo:
    def __init__(self, name, path, line):
        self.name = name
        self.path = path
        self.line = line
        self.members = []  # [(name, line, skipped, path, bulk_group)]
        self.save = None   # MethodBody
        self.load = None   # MethodBody


# --------------------------------------------------------------------------
# Text backend: class/member/method extraction with a brace-matching
# statement parser.  Robust to nested types, inline method bodies,
# brace initializers, templates, and multi-line declarations.
# --------------------------------------------------------------------------

ACCESS = {"public", "private", "protected"}
CLASS_KEYS = {"class", "struct", "union"}
NON_MEMBER_KEYS = {"using", "typedef", "friend", "template", "operator",
                   "static_assert"}


def match_brace(toks, i, open_tok="{", close_tok="}"):
    """toks[i] is '{' (or open_tok); return index just past its
    matching '}' (or close_tok)."""
    depth = 0
    while i < len(toks):
        t = toks[i][0]
        if t == open_tok:
            depth += 1
        elif t == close_tok:
            depth -= 1
            if depth == 0:
                return i + 1
        i += 1
    return len(toks)


def _paren_end(toks, i):
    """toks[i] is '('; return the index of its matching ')'."""
    return match_brace(toks, i, "(", ")") - 1


# Tokens allowed between a signature's ')' and its body's '{' (or a
# trailing annotation).
SIG_QUALIFIERS = {"const", "noexcept", "override", "final", "volatile",
                  "mutable", "&"}
# Identifiers followed by '(' that never name a function definition.
NOT_FUNCTIONS = {"if", "for", "while", "switch", "catch", "return",
                 "sizeof", "alignof", "alignas", "decltype",
                 "static_assert", "noexcept", "throw", "new",
                 "delete"}


class FuncDef:
    def __init__(self, name, idx, close, body):
        self.name = name    # qualified: `Cls::f` out of line or inline
        self.idx = idx      # index of the name token
        self.close = close  # index of the signature's ')'
        self.body = body    # body tokens, braces included


def function_definitions(toks):
    """Every function definition in a token stream, in source order.
    Class bodies are entered, so inline methods are found; function
    bodies are skipped."""
    scopes = []  # [(class name, index past its closing brace)]
    i = 0
    n = len(toks)
    while i < n:
        while scopes and i >= scopes[-1][1]:
            scopes.pop()
        t = toks[i][0]
        if t in ("class", "struct") and not (
                i > 0 and toks[i - 1][0] == "enum"):
            j = i + 1
            while j < n and toks[j][0] not in ("{", ";", "(", ")", "="):
                j += 1
            if j < n and toks[j][0] == "{" and is_ident(toks[i + 1][0]):
                scopes.append((toks[i + 1][0], match_brace(toks, j)))
                i = j + 1
                continue
        if not (is_ident(t) and t not in NOT_FUNCTIONS and
                i + 1 < n and toks[i + 1][0] == "(" and
                (i == 0 or toks[i - 1][0] not in (".", "->"))):
            i += 1
            continue
        close = _paren_end(toks, i + 1)
        j = close + 1
        while j < n and toks[j][0] in SIG_QUALIFIERS:
            j += 1
        if j >= n or toks[j][0] != "{":
            i += 1
            continue
        body_end = match_brace(toks, j)
        name = t
        k = i
        while (k >= 2 and toks[k - 1][0] == "::" and
               is_ident(toks[k - 2][0])):
            name = toks[k - 2][0] + "::" + name
            k -= 2
        if "::" not in name and scopes:
            name = scopes[-1][0] + "::" + name
        yield FuncDef(name, i, close, toks[j:body_end])
        i = body_end


def member_names_from_stmt(stmt):
    """Classify one class-scope statement; return [(name, line)] of the
    data members it declares (usually 0 or 1)."""
    toks = [t for t in stmt if t[0] not in ("mutable", "inline")]
    if not toks:
        return []
    words = {t[0] for t in toks}
    if words & NON_MEMBER_KEYS or "static" in words:
        return []
    if words & CLASS_KEYS or "enum" in words:
        return []
    if toks[0][0] in ACCESS:
        return []
    # Function declarations have a top-level paren.
    depth_a = 0
    for t, _ in toks:
        if t == "<":
            depth_a += 1
        elif t == ">":
            depth_a = max(0, depth_a - 1)
        elif t == "(" and depth_a == 0:
            return []
    # Split on top-level commas (multi-declarator support).
    segments, seg = [], []
    da = db = dc = 0
    for tok in toks:
        t = tok[0]
        if t == "<":
            da += 1
        elif t == ">":
            da = max(0, da - 1)
        elif t == "[":
            db += 1
        elif t == "]":
            db -= 1
        elif t == "{":
            dc += 1
        elif t == "}":
            dc -= 1
        elif t == "," and da == db == dc == 0:
            segments.append(seg)
            seg = []
            continue
        seg.append(tok)
    segments.append(seg)

    out = []
    for k, seg in enumerate(segments):
        # Cut the declarator at '=' / '{' / ':' (bitfield) at top level.
        da = db = 0
        decl = []
        for tok in seg:
            t = tok[0]
            if t == "<":
                da += 1
            elif t == ">":
                da = max(0, da - 1)
            elif t == "[":
                db += 1
            elif t == "]":
                db -= 1
            if da == 0 and db == 0 and t in ("=", "{", ":"):
                break
            decl.append(tok)
        # Only identifiers at template/array depth 0 can be the
        # declared name (`MicroOp batch_[batchSize_]` declares batch_,
        # not batchSize_; `std::vector<IqEntry> phys_` declares phys_).
        ids = []
        da = db = 0
        for tok in decl:
            t = tok[0]
            if t == "<":
                da += 1
            elif t == ">":
                da = max(0, da - 1)
            elif t == "[":
                db += 1
            elif t == "]":
                db = max(0, db - 1)
            elif (da == 0 and db == 0 and is_ident(t) and
                  t not in ("const", "volatile")):
                ids.append(tok)
        if not ids:
            continue
        # First segment: the last top-level identifier is the name
        # (everything before it is the type).  Later segments are
        # bare declarators: the first identifier is the name.
        name_tok = ids[-1] if k == 0 else ids[0]
        if len(ids) < 2 and k == 0:
            continue  # a lone type name is not a declaration
        out.append((name_tok[0], name_tok[1]))
    return out


def param_name_from_sig(sig_toks):
    """Last identifier inside the () of a one-parameter signature."""
    ids = [t for t, _ in sig_toks if is_ident(t)]
    return ids[-1] if ids else None


def parse_class_body(toks, i, cls, classes, annotations, path):
    """toks[i] is the '{' opening the class body.  Returns the index
    just past the matching '}'."""
    end = match_brace(toks, i)
    j = i + 1
    stmt = []
    while j < end - 1:
        t, ln = toks[j]
        if t in CLASS_KEYS and not stmt or (
                t in CLASS_KEYS and stmt and stmt[-1][0] != "enum"):
            # Possible nested type definition.
            consumed = try_parse_class(toks, j, classes, annotations, path)
            if consumed:
                j = consumed
                stmt = []
                if j < end - 1 and toks[j][0] == ";":
                    j += 1
                continue
        if t == ":" and len(stmt) == 1 and stmt[0][0] in ACCESS:
            stmt = []
            j += 1
            continue
        if t == "{":
            top = [x[0] for x in stmt]
            eq_at = top.index("=") if "=" in top else None
            paren_at = top.index("(") if "(" in top else None
            if eq_at is not None and (paren_at is None or
                                      eq_at < paren_at):
                # Brace initializer inside `= { ... }`.
                j = match_brace(toks, j)
                continue
            if paren_at is not None:
                # Inline method definition: capture save/load bodies.
                name = None
                sig = []
                depth_a = 0
                for k2, (tt, _) in enumerate(stmt):
                    if tt == "<":
                        depth_a += 1
                    elif tt == ">":
                        depth_a = max(0, depth_a - 1)
                    elif tt == "(" and depth_a == 0:
                        name = stmt[k2 - 1][0] if k2 else None
                        depth_p = 0
                        for k3 in range(k2, len(stmt)):
                            if stmt[k3][0] == "(":
                                depth_p += 1
                            elif stmt[k3][0] == ")":
                                depth_p -= 1
                                if depth_p == 0:
                                    break
                        sig = stmt[k2 + 1:k3]
                        break
                body_end = match_brace(toks, j)
                if name in ("saveState", "loadState"):
                    body = MethodBody(path, param_name_from_sig(sig),
                                      toks[j:body_end], ln)
                    if name == "saveState":
                        cls.save = body
                    else:
                        cls.load = body
                j = body_end
                stmt = []
                if j < end - 1 and toks[j][0] == ";":
                    j += 1
                continue
            if "enum" in top:
                j = match_brace(toks, j)
                continue
            # Brace-init member (`std::vector<int> v{...};`): skip the
            # braces, keep accumulating until the ';'.
            j = match_brace(toks, j)
            continue
        if t == ";":
            for name, mline in member_names_from_stmt(stmt):
                first = stmt[0][1]
                skipped = has_annotation(annotations, "ckpt:skip",
                                         first, mline)
                bulk = same_line_annotation_value(
                    annotations, "ckpt:bulk", mline)
                cls.members.append((name, mline, skipped, path,
                                    bulk))
            stmt = []
            j += 1
            continue
        stmt.append((t, ln))
        j += 1
    return end


def try_parse_class(toks, i, classes, annotations, path):
    """If toks[i] starts a class/struct *definition*, parse it and
    return the index past it; otherwise return None."""
    if toks[i][0] not in ("class", "struct"):
        return None
    if i > 0 and toks[i - 1][0] == "enum":
        return None
    j = i + 1
    name = None
    while j < len(toks):
        t = toks[j][0]
        if is_ident(t) and t not in ("final", "alignas"):
            name = t
            j += 1
            break
        if t in (";", "{", "(", ")"):
            break
        j += 1
    if name is None:
        return None
    # Scan past a possible base-clause for '{'; a ';', '(' or ')'
    # first means forward declaration / parameter / variable.
    depth_a = 0
    while j < len(toks):
        t = toks[j][0]
        if t == "<":
            depth_a += 1
        elif t == ">":
            depth_a = max(0, depth_a - 1)
        elif depth_a == 0:
            if t == "{":
                tmp = ClassInfo(name, path, toks[i][1])
                end = parse_class_body(toks, j, tmp, classes,
                                       annotations, path)
                cls = classes.setdefault(name, tmp)
                if cls is not tmp:
                    # Class seen before (e.g. its methods were defined
                    # in an earlier-scanned .cc): merge, never clobber.
                    if not cls.members:
                        cls.members = tmp.members
                    cls.save = cls.save or tmp.save
                    cls.load = cls.load or tmp.load
                return end
            if t in (";", "(", ")", "=") or t in CLASS_KEYS:
                return None
        j += 1
    return None


def parse_file_text_backend(path, toks, annotations, classes):
    """Collect class definitions and out-of-line saveState/loadState
    definitions from one file."""
    i = 0
    n = len(toks)
    while i < n:
        consumed = try_parse_class(toks, i, classes, annotations, path)
        if consumed:
            i = consumed
            continue
        t, ln = toks[i]
        # Out-of-line definition: Class::saveState(...) ... {
        if (t == "::" and i + 1 < n and
                toks[i + 1][0] in ("saveState", "loadState") and
                i >= 1 and is_ident(toks[i - 1][0]) and
                i + 2 < n and toks[i + 2][0] == "("):
            cname = toks[i - 1][0]
            kind = toks[i + 1][0]
            j = i + 2
            depth = 0
            sig = []
            while j < n:
                tt = toks[j][0]
                if tt == "(":
                    depth += 1
                elif tt == ")":
                    depth -= 1
                    if depth == 0:
                        break
                elif depth >= 1:
                    sig.append(toks[j])
                j += 1
            # Skip qualifiers (const, noexcept...) up to '{' or ';'.
            while j < n and toks[j][0] not in ("{", ";"):
                j += 1
            if j < n and toks[j][0] == "{":
                body_end = match_brace(toks, j)
                cls = classes.setdefault(cname,
                                         ClassInfo(cname, path, ln))
                body = MethodBody(path, param_name_from_sig(sig),
                                  toks[j:body_end], ln)
                if kind == "saveState":
                    cls.save = body
                else:
                    cls.load = body
                i = body_end
                continue
        i += 1


# --------------------------------------------------------------------------
# libclang backend: same IR, built from the AST.  Any failure is
# reported and the caller falls back to the text backend.
# --------------------------------------------------------------------------


def build_ir_libclang(files, root, compile_commands, file_cache):
    from clang import cindex  # noqa: imported lazily on purpose

    index = cindex.Index.create()
    args = ["-xc++", "-std=c++20", "-I", os.path.join(root, "src")]
    db = None
    if compile_commands:
        db = cindex.CompilationDatabase.fromDirectory(
            os.path.dirname(os.path.abspath(compile_commands)))

    classes = {}
    wanted = {os.path.abspath(f) for f in files}

    def body_from_cursor(cur, param):
        path = os.path.abspath(cur.extent.start.file.name)
        text, annotations = file_cache.get_scrubbed(path)
        lines = text.split("\n")
        s, e = cur.extent.start, cur.extent.end
        snippet = "\n" * (s.line - 1) + "\n".join(lines[s.line - 1:e.line])
        toks = tokenize(snippet)
        # Trim to the compound body (from the first '{').
        for k, (t, _) in enumerate(toks):
            if t == "{":
                toks = toks[k:]
                break
        return MethodBody(path, param, toks, s.line)

    def visit(cur):
        for c in cur.get_children():
            loc_file = c.location.file
            if loc_file is None:
                visit(c)
                continue
            path = os.path.abspath(loc_file.name)
            if path not in wanted:
                continue
            if c.kind in (cindex.CursorKind.CLASS_DECL,
                          cindex.CursorKind.STRUCT_DECL) and \
                    c.is_definition():
                cls = classes.setdefault(
                    c.spelling, ClassInfo(c.spelling, path,
                                          c.location.line))
                if not cls.members:
                    _t, annotations = file_cache.get_scrubbed(path)
                    for f in c.get_children():
                        if f.kind == cindex.CursorKind.FIELD_DECL:
                            ml = f.location.line
                            skipped = has_annotation(
                                annotations, "ckpt:skip", ml)
                            bulk = same_line_annotation_value(
                                annotations, "ckpt:bulk", ml)
                            cls.members.append(
                                (f.spelling, ml, skipped, path,
                                 bulk))
            if c.kind == cindex.CursorKind.CXX_METHOD and \
                    c.spelling in ("saveState", "loadState") and \
                    c.is_definition():
                parent = c.semantic_parent
                cls = classes.setdefault(
                    parent.spelling,
                    ClassInfo(parent.spelling, path, parent.location.line))
                params = list(c.get_arguments())
                pname = params[0].spelling if params else None
                body = body_from_cursor(c, pname)
                if c.spelling == "saveState":
                    cls.save = body
                else:
                    cls.load = body
            visit(c)

    tus = [f for f in files if f.endswith(".cc")] or list(files)
    for f in tus:
        t_args = list(args)
        if db:
            cmds = db.getCompileCommands(os.path.abspath(f))
            if cmds:
                t_args = [a for a in list(cmds[0].arguments)[1:-1]
                          if a != "-c" and not a.endswith(f)]
        tu = index.parse(f, args=t_args)
        fatal_diags = [d for d in tu.diagnostics if d.severity >= 4]
        if fatal_diags:
            raise RuntimeError(
                "libclang failed on %s: %s" % (f, fatal_diags[0].spelling))
        visit(tu.cursor)
    # Headers not reached through any TU still contribute members.
    for f in files:
        if f.endswith(".hh") or f.endswith(".h"):
            path = os.path.abspath(f)
            known = {c.path for c in classes.values()}
            if path not in known:
                toks, annotations = file_cache.get_tokens(path)
                parse_file_text_backend(path, toks, annotations, classes)
    return classes


# --------------------------------------------------------------------------
# Checkpoint-coverage analysis (backend-independent).
# --------------------------------------------------------------------------

SERIALIZER_METHODS = {"u8", "u32", "u64", "i32", "i64", "boolean", "f64",
                      "str", "blob"}


def serializer_sequence(body):
    """Ordered list of (method, line, attributed_member_candidates) for
    every `<param>.<method>(...)` call in a save/load body."""
    toks = body.toks
    out = []
    i = 0
    while i + 3 < len(toks):
        if (toks[i][0] == body.param and toks[i + 1][0] == "." and
                toks[i + 2][0] in SERIALIZER_METHODS and
                toks[i + 3][0] == "("):
            # Collect identifiers in the surrounding statement for
            # attribution in diagnostics.
            s = i
            while s > 0 and toks[s][0] not in (";", "{", "}"):
                s -= 1
            e = i
            while e < len(toks) and toks[e][0] not in (";", "{", "}"):
                e += 1
            idents = [t for t, _ in toks[s:e] if is_ident(t)]
            out.append((toks[i + 2][0], toks[i][1], idents))
        i += 1
    return out


def body_refs(body):
    """Map identifier -> (first_index, count) over a method body."""
    refs = {}
    for idx, (t, _ln) in enumerate(body.toks):
        if is_ident(t):
            if t not in refs:
                refs[t] = [idx, 0]
            refs[t][1] += 1
    return refs


def check_checkpoint(classes, findings):
    for name in sorted(classes):
        cls = classes[name]
        if cls.save is None and cls.load is None:
            continue
        if cls.save is None or cls.load is None:
            missing = "saveState" if cls.save is None else "loadState"
            present = cls.load or cls.save
            findings.append((present.path, present.line, "checkpoint",
                             "class %s implements %s but no matching %s "
                             "was found" % (name,
                                            "loadState" if cls.save is None
                                            else "saveState", missing)))
            continue
        save_refs = body_refs(cls.save)
        load_refs = body_refs(cls.load)
        save_calls = serializer_sequence(cls.save)
        load_calls = serializer_sequence(cls.load)

        def blob_covers(calls, member):
            return any(m == "blob" and member in idents
                       for m, _ln, idents in calls)

        ordered = []
        for mname, mline, skipped, mpath, bulk in cls.members:
            if skipped:
                continue
            in_save = mname in save_refs
            in_load = mname in load_refs
            if in_save and in_load:
                ordered.append((mname, save_refs[mname][0],
                                load_refs[mname][0]))
                # A bulk-group array must actually flow through a
                # blob call on both sides; an incidental mention
                # (say, a memset in loadState) must not count as
                # serialization.
                if bulk is not None:
                    sides = [side for side, calls in
                             (("saveState", save_calls),
                              ("loadState", load_calls))
                             if not blob_covers(calls, mname)]
                    if sides:
                        findings.append(
                            (mpath, mline, "checkpoint",
                             "class %s: member '%s' of bulk group "
                             "'%s' is not written by a blob(...) "
                             "call in %s" % (name, mname, bulk,
                                             " or ".join(sides))))
                continue
            if not in_save and not in_load:
                side = "saveState or loadState"
            elif not in_save:
                side = "saveState"
            else:
                side = "loadState"
            if bulk is not None:
                findings.append(
                    (mpath, mline, "checkpoint",
                     "class %s: member '%s' of bulk group '%s' is not "
                     "referenced in %s — a dropped array in a "
                     "bulk-serialized group corrupts every array "
                     "restored after it" % (name, mname, bulk, side)))
            else:
                findings.append(
                    (mpath, mline, "checkpoint",
                     "class %s: member '%s' is not referenced in %s and has "
                     "no ckpt:skip(<reason>) annotation" % (name, mname,
                                                            side)))

        # Relative order of first references must match.
        by_save = [m for m, _s, _l in
                   sorted(ordered, key=lambda x: x[1])]
        by_load = [m for m, _s, _l in
                   sorted(ordered, key=lambda x: x[2])]
        for a, b in zip(by_save, by_load):
            if a != b:
                findings.append(
                    (cls.save.path, cls.save.line, "checkpoint",
                     "class %s: member order differs between saveState "
                     "and loadState (saveState touches '%s' where "
                     "loadState touches '%s' first)" % (name, a, b)))
                break

        # Static serializer-call sequences must match call-for-call.
        sseq = serializer_sequence(cls.save)
        lseq = serializer_sequence(cls.load)
        member_set = {m[0] for m in cls.members}
        if [m for m, _l, _i in sseq] != [m for m, _l, _i in lseq]:
            k = 0
            while (k < len(sseq) and k < len(lseq) and
                   sseq[k][0] == lseq[k][0]):
                k += 1

            def describe(seq, k):
                if k >= len(seq):
                    return "nothing (sequence ends after %d calls)" % len(seq)
                method, line, idents = seq[k]
                members = [i for i in idents if i in member_set]
                attr = (" near member '%s'" % members[0]) if members else ""
                return "%s at line %d%s" % (method, line, attr)

            findings.append(
                (cls.save.path, cls.save.line, "checkpoint",
                 "class %s: serializer call sequences diverge at call "
                 "#%d: saveState has %s, loadState has %s"
                 % (name, k + 1, describe(sseq, k), describe(lseq, k))))


# --------------------------------------------------------------------------
# Determinism checker (token-based).
# --------------------------------------------------------------------------

BANNED_IDENTS = {
    "random_device": "std::random_device is non-deterministic entropy",
    "system_clock": "wall-clock read",
    "steady_clock": "wall-clock read",
    "high_resolution_clock": "wall-clock read",
    "__rdtsc": "timestamp-counter read",
}

BANNED_CALLS = {
    "rand": "C PRNG with global hidden state",
    "srand": "C PRNG with global hidden state",
    "rand_r": "C PRNG",
    "random": "C PRNG with global hidden state",
    "srandom": "C PRNG with global hidden state",
    "drand48": "C PRNG with global hidden state",
    "lrand48": "C PRNG with global hidden state",
    "mrand48": "C PRNG with global hidden state",
    "time": "wall-clock read",
    "clock": "CPU-clock read",
    "gettimeofday": "wall-clock read",
    "clock_gettime": "wall-clock read",
    "timespec_get": "wall-clock read",
}

UNORDERED_TYPES = {"unordered_map", "unordered_set", "unordered_multimap",
                   "unordered_multiset"}
ORDERED_ASSOC = {"map", "set", "multimap", "multiset"}
ITER_METHODS = {"begin", "end", "cbegin", "cend", "rbegin", "rend"}


def skip_template_args(toks, i):
    """toks[i] is '<'; return index past the matching '>'."""
    depth = 0
    while i < len(toks):
        t = toks[i][0]
        if t == "<":
            depth += 1
        elif t == ">":
            depth -= 1
            if depth == 0:
                return i + 1
        elif t in (";", "{"):
            return i  # not actually template args
        i += 1
    return len(toks)


def check_determinism(path, toks, annotations, findings):
    def allowed(line):
        return has_annotation(annotations, "det:allow", line)

    def add(line, msg):
        if not allowed(line):
            findings.append((path, line, "determinism", msg))

    # Pass 1: collect names declared with unordered container types.
    unordered_vars = set()
    for i, (t, ln) in enumerate(toks):
        if t in UNORDERED_TYPES:
            j = i + 1
            if j < len(toks) and toks[j][0] == "<":
                j = skip_template_args(toks, j)
            while j < len(toks) and toks[j][0] in ("&", "*", "const"):
                j += 1
            if j < len(toks) and is_ident(toks[j][0]):
                unordered_vars.add(toks[j][0])

    # Pass 2: banned tokens and calls, unordered iteration,
    # pointer-keyed ordered containers.
    n = len(toks)
    for i, (t, ln) in enumerate(toks):
        prev = toks[i - 1][0] if i else ""
        nxt = toks[i + 1][0] if i + 1 < n else ""

        if t in BANNED_IDENTS and prev != ".":
            add(ln, "banned identifier '%s': %s (annotate the line with "
                "det:allow(<reason>) if measurement-only)"
                % (t, BANNED_IDENTS[t]))
            continue

        if t in BANNED_CALLS and nxt == "(":
            if prev == ".":
                continue  # member call on some object, not the libc one
            if prev == "::" and (i < 2 or toks[i - 2][0] != "std"):
                continue  # qualified call into a project namespace
            add(ln, "banned call '%s()': %s undermines bit-identical "
                "replay" % (t, BANNED_CALLS[t]))
            continue

        # Range-for over an unordered container.
        if t == "for" and nxt == "(":
            end = i + 1
            depth = 0
            colon = None
            while end < n:
                tt = toks[end][0]
                if tt == "(":
                    depth += 1
                elif tt == ")":
                    depth -= 1
                    if depth == 0:
                        break
                elif tt == ":" and depth == 1 and colon is None:
                    colon = end
                end += 1
            if colon is not None:
                range_ids = [x for x, _ in toks[colon + 1:end]
                             if is_ident(x)]
                bad = [x for x in range_ids
                       if x in unordered_vars or x in UNORDERED_TYPES]
                if bad:
                    add(ln, "iteration over unordered container '%s': "
                        "traversal order is implementation-defined and "
                        "breaks bit-identical replay" % bad[0])

        # something.begin() on a known unordered container.
        if (t in unordered_vars and nxt == "." and i + 3 < n and
                toks[i + 2][0] in ITER_METHODS and toks[i + 3][0] == "("):
            add(ln, "iterator over unordered container '%s': traversal "
                "order is implementation-defined" % t)

        # Pointer-keyed ordered containers: std::map<T*, ...> etc.
        if (t in ORDERED_ASSOC and prev == "::" and i >= 2 and
                toks[i - 2][0] == "std" and nxt == "<"):
            j = i + 1
            depth = 0
            first_arg = []
            while j < n:
                tt = toks[j][0]
                if tt == "<":
                    depth += 1
                elif tt == ">":
                    depth -= 1
                    if depth == 0:
                        break
                elif tt == "," and depth == 1:
                    break
                elif depth >= 1:
                    first_arg.append(tt)
                j += 1
            if "*" in first_arg:
                add(ln, "pointer-keyed std::%s: key order depends on "
                    "allocation addresses, which vary run to run" % t)


# --------------------------------------------------------------------------
# Generic hygiene checker.
# --------------------------------------------------------------------------


def check_hygiene(path, raw_text, toks, findings):
    is_header = path.endswith((".hh", ".h", ".hpp"))
    if is_header:
        has_guard = "#pragma once" in raw_text
        m = re.search(r"^\s*#\s*ifndef\s+(\w+)", raw_text, re.M)
        if m:
            if re.search(r"^\s*#\s*define\s+%s\b" % re.escape(m.group(1)),
                         raw_text, re.M):
                has_guard = True
        if not has_guard:
            findings.append((path, 1, "hygiene",
                             "header has no include guard "
                             "(#ifndef/#define pair or #pragma once)"))
    for i, (t, ln) in enumerate(toks):
        if (is_header and t == "using" and i + 1 < len(toks) and
                toks[i + 1][0] == "namespace"):
            findings.append((path, ln, "hygiene",
                             "'using namespace' in a header leaks into "
                             "every includer"))
        if t == "endl" and i >= 2 and toks[i - 1][0] == "::" and \
                toks[i - 2][0] == "std":
            findings.append((path, ln, "hygiene",
                             "std::endl flushes the stream; use '\\n'"))


# --------------------------------------------------------------------------
# Lock-discipline checker (token-based; DESIGN.md §17).
#
# The static complement of clang's -Wthread-safety: it enforces the
# same GUARDED_BY/REQUIRES vocabulary in builds where the macros
# expand to nothing (GCC) and in lambda bodies (which clang analyzes
# as separate, unannotated functions).  Matching is by *name*, not
# object identity — precise enough for this tree, where guarded
# member names are unique per guard — and RAII-only: acquisitions
# are MutexLock/lock_guard/unique_lock/scoped_lock constructions,
# releases are scope exit or an explicit <lockvar>.unlock().
# --------------------------------------------------------------------------

LOCK_TYPES = {"MutexLock", "lock_guard", "unique_lock", "scoped_lock"}


def _guard_of(arg_toks):
    """Guard name of one capability expression: its last identifier
    (`conn->writeMutex` -> writeMutex, `mutex_` -> mutex_)."""
    ids = [t for t in arg_toks if is_ident(t)]
    return ids[-1] if ids else None


def _guards_of(arg_toks):
    """Guard names of a comma-separated capability list."""
    out, seg = [], []
    for t in arg_toks:
        if t == ",":
            g = _guard_of(seg)
            if g:
                out.append(g)
            seg = []
        else:
            seg.append(t)
    g = _guard_of(seg)
    if g:
        out.append(g)
    return out


def _stem(path):
    return os.path.basename(path).split(".", 1)[0]


def _requires_function_name(toks, rec):
    """Function a REQUIRES record is attached to: walk back over
    trailing qualifiers to the signature's ')' and take the
    identifier before the matching '('."""
    k = rec.idx - 1
    while k >= 0 and toks[k][0] in SIG_QUALIFIERS:
        k -= 1
    if k < 0 or toks[k][0] != ")":
        return None
    depth = 0
    while k >= 0:
        t = toks[k][0]
        if t == ")":
            depth += 1
        elif t == "(":
            depth -= 1
            if depth == 0:
                break
        k -= 1
    if k > 0 and is_ident(toks[k - 1][0]):
        return toks[k - 1][0]
    return None


def collect_lock_model(files, cache):
    """Cross-file lock model.

    Returns (guarded, decl_skip, requires_funcs):
      guarded        member name -> (guard name, declaring path)
      decl_skip      path -> token indexes of the declarations
                     themselves (a declaration is not a reference)
      requires_funcs function name -> ordered guard list callers
                     must hold (REQUIRES contract)
    """
    guarded = {}
    decl_skip = {}
    requires_funcs = {}
    for path in files:
        apath = os.path.abspath(path)
        toks, _ann = cache.get_tokens(apath)
        for rec in cache.get_tsa(apath):
            if rec.macro in ("GUARDED_BY", "PT_GUARDED_BY"):
                k = rec.idx - 1
                if k >= 0 and is_ident(toks[k][0]):
                    guard = _guard_of(rec.args)
                    if guard:
                        guarded[toks[k][0]] = (guard, apath)
                        decl_skip.setdefault(apath, set()).add(k)
            elif rec.macro in ("REQUIRES", "REQUIRES_SHARED"):
                name = _requires_function_name(toks, rec)
                guards = _guards_of(rec.args)
                if name and guards:
                    have = requires_funcs.setdefault(name, [])
                    for g in guards:
                        if g not in have:
                            have.append(g)
    return guarded, decl_skip, requires_funcs


def _requires_body_braces(toks, tsa):
    """Brace token index -> guards, for REQUIRES on *definitions*
    (a '{' follows the annotation, possibly past qualifiers)."""
    out = {}
    for rec in tsa:
        if rec.macro not in ("REQUIRES", "REQUIRES_SHARED"):
            continue
        j = rec.idx
        while j < len(toks) and toks[j][0] in SIG_QUALIFIERS:
            j += 1
        if j < len(toks) and toks[j][0] == "{":
            out.setdefault(j, []).extend(_guards_of(rec.args))
    return out


def _lambda_body_braces(toks):
    """Token indexes of '{' that open lambda bodies.  Outer locks
    are not visible inside them: a lambda may run on another thread
    (thread entry, deferred callback), so only locks acquired
    *inside* the body count.  This is exactly the hole clang's
    analysis has the other way around (it silently trusts lambdas);
    the tree's style rule is: no guarded access in lambdas without
    acquiring the lock in the lambda."""
    opens = set()
    n = len(toks)
    i = 0
    while i < n:
        if toks[i][0] != "[":
            i += 1
            continue
        prev = toks[i - 1][0] if i else ""
        if is_ident(prev) or prev in ("]", ")"):
            i += 1
            continue  # array subscript, not a lambda-intro
        d = 0
        j = i
        while j < n:
            if toks[j][0] == "[":
                d += 1
            elif toks[j][0] == "]":
                d -= 1
                if d == 0:
                    break
            j += 1
        j += 1
        if j < n and toks[j][0] == "(":
            d = 0
            while j < n:
                if toks[j][0] == "(":
                    d += 1
                elif toks[j][0] == ")":
                    d -= 1
                    if d == 0:
                        break
                j += 1
            j += 1
        # Skip specifiers / trailing return type up to the body.
        while j < n and toks[j][0] not in ("{", ";", ")", ",", "=",
                                           "}", "]"):
            j += 1
        if j < n and toks[j][0] == "{":
            opens.add(j)
        i += 1
    return opens


# Keywords that may directly precede a call expression; an identifier
# before `name(` that is NOT one of these marks a declaration
# (`void flushLocked(...)`), which is a contract, not a call.
CALL_CONTEXT_KEYWORDS = {"return", "throw", "case", "else", "do",
                         "co_return", "co_await", "co_yield"}


def check_lock_discipline(path, toks, tsa, annotations, guarded,
                          decl_skip, requires_funcs, findings):
    apath = os.path.abspath(path)
    skip = decl_skip.get(apath, set())
    req_bodies = _requires_body_braces(toks, tsa)
    lambda_opens = _lambda_body_braces(toks)

    def exempt(line):
        return has_annotation(annotations, "lint:allow", line)

    # Held entries: [entry_depth, guard, lockvar, suspended_at].
    # suspended_at models `lock.unlock()` inside a nested block
    # that exits early (shed paths): the lock is invisible until
    # that block closes, then live again on the fall-through path
    # that never executed the unlock. An unlock at the acquisition
    # depth itself is a plain linear early release.
    held = []
    barriers = []   # brace depths at which a lambda body opened
    lockvar_guards = {}  # lock variable -> [guards] (for re-lock)
    depth = 0
    n = len(toks)
    i = 0
    while i < n:
        t, ln = toks[i]
        if t == "{":
            depth += 1
            if i in lambda_opens:
                barriers.append(depth)
            for g in req_bodies.get(i, []):
                held.append([depth, g, None, None])
            i += 1
            continue
        if t == "}":
            held = [h for h in held if h[0] < depth]
            for h in held:
                if h[3] is not None and h[3] >= depth:
                    h[3] = None
            while barriers and barriers[-1] >= depth:
                barriers.pop()
            depth = max(0, depth - 1)
            i += 1
            continue

        # RAII acquisition: LockType [<...>] var ( args ) .
        if t in LOCK_TYPES:
            j = i + 1
            if j < n and toks[j][0] == "<":
                j = skip_template_args(toks, j)
            if (j + 1 < n and is_ident(toks[j][0]) and
                    toks[j + 1][0] == "("):
                var = toks[j][0]
                d = 0
                k = j + 1
                args = []
                while k < n:
                    tt = toks[k][0]
                    if tt == "(":
                        d += 1
                    elif tt == ")":
                        d -= 1
                        if d == 0:
                            break
                    elif d >= 1:
                        args.append(tt)
                    k += 1
                guards = _guards_of(args)
                if guards:
                    for g in guards:
                        held.append([depth, g, var, None])
                    lockvar_guards[var] = guards
                i = k + 1
                continue

        # Explicit early release / re-acquire through a lock var.
        if (is_ident(t) and t in lockvar_guards and i + 3 < n and
                toks[i + 1][0] == "." and
                toks[i + 2][0] in ("unlock", "lock") and
                toks[i + 3][0] == "("):
            if toks[i + 2][0] == "unlock":
                kept = []
                for h in held:
                    if h[2] != t:
                        kept.append(h)
                    elif h[0] < depth:
                        h[3] = depth  # early-exit branch release
                        kept.append(h)
                held = kept
            else:
                held = [h for h in held if h[2] != t]
                for g in lockvar_guards[t]:
                    held.append([depth, g, t, None])
            i += 4
            continue

        prev = toks[i - 1][0] if i else ""
        nxt = toks[i + 1][0] if i + 1 < n else ""

        def visible(guard):
            floor = barriers[-1] if barriers else 0
            return any(h[1] == guard and h[0] >= floor and
                       h[3] is None for h in held)

        # Call-site contract: callers of REQUIRES(m) functions must
        # hold m.
        if (is_ident(t) and t in requires_funcs and nxt == "(" and
                prev not in (".", "->", "::") and
                not (is_ident(prev) and
                     prev not in CALL_CONTEXT_KEYWORDS)):
            for g in requires_funcs[t]:
                if not visible(g) and not exempt(ln):
                    findings.append(
                        (apath, ln, "lock",
                         "call to '%s' REQUIRES(%s) but '%s' is not "
                         "held here" % (t, g, g)))
            i += 1
            continue

        # Guarded-member reference.
        if is_ident(t) and t in guarded and i not in skip:
            guard, decl_path = guarded[t]
            member_access = prev in (".", "->")
            bare_ref = (prev not in (".", "->", "::") and nxt != "(" and
                        t.endswith("_") and
                        _stem(apath) == _stem(decl_path))
            if (member_access or bare_ref) and not visible(guard) \
                    and not exempt(ln):
                findings.append(
                    (apath, ln, "lock",
                     "member '%s' (GUARDED_BY %s) referenced without "
                     "holding '%s' — acquire the lock in this scope, "
                     "mark the function REQUIRES(%s), or annotate "
                     "the line lint:allow(<reason>)"
                     % (t, guard, guard, guard)))
        i += 1


# --------------------------------------------------------------------------
# Protocol-schema checker: encoder/decoder key sets must match,
# mirrored-order, and StateWriter/StateReader blob codecs must agree
# serializer-call-for-call (same discipline as the checkpoint
# checker, applied to the serve JSON protocol and the fabric wire
# format).
# --------------------------------------------------------------------------

PROTO_NAME_RE = re.compile(r"^(encode|parse|decode)[A-Z0-9_]")
PROTO_WRITE_RE = re.compile(r'\[\s*"([^"]+)"\s*\]\s*=')
PROTO_READ_RE = re.compile(
    r'\b(?:find|field)\s*\(\s*(?:[A-Za-z_]\w*\s*,\s*)?"([^"]+)"')
BLOB_CODEC_TYPES = {"StateWriter", "StateReader"}


class ProtoFunc:
    def __init__(self, name, path, start_line, end_line, toks):
        self.name = name
        self.path = path
        self.start_line = start_line
        self.end_line = end_line
        self.toks = toks  # body tokens, braces included


def collect_proto_functions(path, toks):
    """encode*/parse*/decode* function *definitions* in one file."""
    funcs = {}
    for fn in function_definitions(toks):
        t, ln = toks[fn.idx]
        if PROTO_NAME_RE.match(t):
            funcs[t] = ProtoFunc(t, path, ln, fn.body[-1][1], fn.body)
    return funcs


def _ordered_unique(keys):
    seen = set()
    out = []
    for k in keys:
        if k not in seen:
            seen.add(k)
            out.append(k)
    return out


def _proto_skips(annotations, start_line, end_line):
    """proto:skip(<key>: <reason>) keys on or near a function (three
    lines above its signature through its closing brace)."""
    keys = set()
    for ln in range(max(1, start_line - 3), end_line + 1):
        for kind, reason in annotations.get(ln, []):
            if kind == "proto:skip" and ":" in reason:
                keys.add(reason.split(":", 1)[0].strip())
    return keys


def _serializer_call(toks, i, var_names):
    """The method of a `<var>.<serializer method>(` call starting at
    toks[i] through one of var_names, else None."""
    if (i + 3 < len(toks) and toks[i][0] in var_names and
            toks[i + 1][0] == "." and
            toks[i + 2][0] in SERIALIZER_METHODS and
            toks[i + 3][0] == "("):
        return toks[i + 2][0]
    return None


def _codec_sequence(body_toks):
    """Serializer calls through locally declared StateWriter /
    StateReader variables, in order: [(method, line)]."""
    var_names = set()
    n = len(body_toks)
    for i, (t, _ln) in enumerate(body_toks):
        if t in BLOB_CODEC_TYPES and i + 1 < n and \
                is_ident(body_toks[i + 1][0]):
            var_names.add(body_toks[i + 1][0])
    out = []
    for i in range(n):
        method = _serializer_call(body_toks, i, var_names)
        if method:
            out.append((method, body_toks[i][1]))
    return out


def check_protocol(path, toks, annotations, cache, findings):
    apath = os.path.abspath(path)
    funcs = collect_proto_functions(apath, toks)
    if not funcs:
        return
    lines = cache.get_scrubbed_keep_strings(apath).split("\n")

    def body_text(fn):
        return "\n".join(lines[fn.start_line - 1:fn.end_line])

    for name in sorted(funcs):
        if not name.startswith("encode"):
            continue
        enc = funcs[name]
        suffix = name[len("encode"):]
        dec = funcs.get("parse" + suffix) or \
            funcs.get("decode" + suffix)
        if dec is None:
            continue  # one-sided (peer implemented elsewhere, e.g. Python)
        writes = _ordered_unique(PROTO_WRITE_RE.findall(body_text(enc)))
        reads = _ordered_unique(PROTO_READ_RE.findall(body_text(dec)))
        skips = (_proto_skips(annotations, enc.start_line,
                              enc.end_line) |
                 _proto_skips(annotations, dec.start_line,
                              dec.end_line))
        for k in writes:
            if k not in reads and k not in skips:
                findings.append(
                    (apath, enc.start_line, "protocol",
                     "%s writes key '%s' that %s never reads — a "
                     "write-only field silently drifts out of the "
                     "schema (proto:skip(%s: <reason>) if it is "
                     "consumed elsewhere)"
                     % (enc.name, k, dec.name, k)))
        for k in reads:
            if k not in writes and k not in skips:
                findings.append(
                    (apath, dec.start_line, "protocol",
                     "%s reads key '%s' that %s never writes"
                     % (dec.name, k, enc.name)))
        common_w = [k for k in writes if k in reads]
        common_r = [k for k in reads if k in writes]
        for a, b in zip(common_w, common_r):
            if a != b:
                findings.append(
                    (apath, enc.start_line, "protocol",
                     "key order differs between %s and %s: encoder "
                     "writes '%s' where decoder reads '%s' first — "
                     "mirrored order keeps the schema reviewable "
                     "side by side" % (enc.name, dec.name, a, b)))
                break
        eseq = _codec_sequence(enc.toks)
        dseq = _codec_sequence(dec.toks)
        if [m for m, _l in eseq] != [m for m, _l in dseq]:
            k = 0
            while (k < len(eseq) and k < len(dseq) and
                   eseq[k][0] == dseq[k][0]):
                k += 1

            def describe(seq, k):
                if k >= len(seq):
                    return ("nothing (sequence ends after %d calls)"
                            % len(seq))
                return "%s at line %d" % (seq[k][0], seq[k][1])

            findings.append(
                (apath, enc.start_line, "protocol",
                 "blob codec sequences diverge between %s and %s at "
                 "call #%d: encoder has %s, decoder has %s"
                 % (enc.name, dec.name, k + 1, describe(eseq, k),
                    describe(dseq, k))))


# --------------------------------------------------------------------------
# Chunk-registry checker: FourCC uniqueness plus a committed
# baseline (tools/lint/chunk_registry.json) of the serializer-call
# sequence of every function that writes through a StateWriter&
# (class saveState methods, free helpers such as saveActivity, and
# the inline chunk writes of the saveCheckpoint methods) against
# the current kCheckpointVersion. A sequence change without a
# version bump is exactly the failure the versioned checkpoint
# format exists to prevent: an old-format file read by new code
# with no way to tell.
# --------------------------------------------------------------------------

CHUNK_RE = re.compile(r'chunkId\s*\(\s*"([^"]*)"\s*\)')
VERSION_RE = re.compile(r"kCheckpointVersion\s*=\s*(\d+)")


def current_checkpoint_version(files, root, cache):
    """kCheckpointVersion as defined by the linted files, else by the
    tree's checkpoint.hh. A fixture that defines its own version is
    therefore checked against that version, not the tree's."""
    headers = [os.path.join(root, "src", "sim", "checkpoint",
                            "checkpoint.hh")]
    for path in list(files) + headers:
        if os.path.exists(path):
            m = VERSION_RE.search(cache.get_scrubbed_keep_strings(path))
            if m:
                return int(m.group(1))
    return None


def collect_fourccs(files, cache):
    """FourCC tag -> [(path, line)] from chunkId("XXXX") literals."""
    tags = {}
    for path in files:
        apath = os.path.abspath(path)
        text = cache.get_scrubbed_keep_strings(apath)
        for lineno, line in enumerate(text.split("\n"), start=1):
            for m in CHUNK_RE.finditer(line):
                tags.setdefault(m.group(1), []).append(
                    (apath, lineno))
    return tags


def _top_level_args(toks, open_i, close_i):
    """Token-text lists of the comma-separated arguments."""
    args, cur, depth = [], [], 0
    for t, _ln in toks[open_i + 1:close_i]:
        if t in ("(", "[", "{"):
            depth += 1
        elif t in (")", "]", "}"):
            depth -= 1
        if t == "," and depth == 0:
            args.append(cur)
            cur = []
        else:
            cur.append(t)
    if cur:
        args.append(cur)
    return args


def _callee_text(toks, open_i):
    """Source text of the callee in front of toks[open_i] == '(':
    `e.core->stream().saveState` (inner argument lists elided)."""
    parts = []
    j = open_i - 1
    while j >= 0:
        t = toks[j][0]
        if is_ident(t) or t in (".", "->", "::"):
            parts.insert(0, t)
            j -= 1
        elif t == ")":
            depth = 0
            while j >= 0:
                if toks[j][0] == ")":
                    depth += 1
                elif toks[j][0] == "(":
                    depth -= 1
                    if depth == 0:
                        break
                j -= 1
            parts.insert(0, "()")
            j -= 1
        else:
            break
    return "".join(parts)


def _writer_sequence(body, writers):
    """Serializer calls through the writer variables, plus the
    structure around them: `chunk:<id>` for each CheckpointWriter
    chunk opened and `call:<callee>` for each call a writer (or a
    fresh chunk) is handed to, all in source order, as
    [(entry, line)]."""
    seq = []
    for i in range(len(body) - 3):
        t = body[i][0]
        method = _serializer_call(body, i, writers)
        if method:
            seq.append((method, body[i][1]))
        elif (t == "chunk" and body[i - 1][0] in (".", "->") and
              body[i + 1][0] == "("):
            end = _paren_end(body, i + 1)
            seq.append(("chunk:" +
                        "".join(x for x, _ in body[i + 2:end]),
                        body[i][1]))
        elif t == "(" and i > 0 and is_ident(body[i - 1][0]):
            end = _paren_end(body, i)
            for arg in _top_level_args(body, i, end):
                if ((len(arg) == 1 and arg[0] in writers) or
                        (len(arg) > 2 and arg[1] in (".", "->") and
                         arg[2] == "chunk")):
                    seq.append(("call:" + _callee_text(body, i),
                                body[i][1]))
                    break
    return seq


def collect_serializers(files, cache):
    """Qualified function name -> (path, line, [(entry, line)]) for
    every function definition that writes through a StateWriter& (a
    parameter or a local reference)."""
    out = {}
    for path in files:
        apath = os.path.abspath(path)
        toks, _ann = cache.get_tokens(apath)
        for fn in function_definitions(toks):
            writers = set()
            for arg in _top_level_args(toks, fn.idx + 1, fn.close):
                if "StateWriter" in arg and "&" in arg:
                    writers.add([a for a in arg if is_ident(a)][-1])
            body = fn.body
            for k in range(len(body) - 3):
                if (body[k][0] == "StateWriter" and
                        body[k + 1][0] == "&" and
                        is_ident(body[k + 2][0]) and
                        body[k + 3][0] == "="):
                    writers.add(body[k + 2][0])
            if writers:
                out[fn.name] = (apath, toks[fn.idx][1],
                                _writer_sequence(body, writers))
    return out


def serializer_registry(serializers):
    """Qualified function name -> serializer-call sequence."""
    return {name: [entry for entry, _line in seq]
            for name, (_p, _l, seq) in serializers.items()}


def update_chunk_registry(files, cache, registry_path, root):
    tags = collect_fourccs(files, cache)
    data = {
        "checkpoint_version": current_checkpoint_version(files, root,
                                                         cache),
        "fourccs": {tag: os.path.relpath(sites[0][0], root)
                    for tag, sites in sorted(tags.items())},
        "serializers": serializer_registry(
            collect_serializers(files, cache)),
    }
    with open(registry_path, "w") as f:
        json.dump(data, f, indent=2, sort_keys=True)
        f.write("\n")


def check_chunks(files, cache, registry_path, root, check_registry,
                 findings):
    tags = collect_fourccs(files, cache)
    for tag in sorted(tags):
        sites = tags[tag]
        for path, line in sites[1:]:
            _t, ann = cache.get_scrubbed(path)
            if has_annotation(ann, "lint:allow", line):
                continue
            findings.append(
                (path, line, "chunks",
                 "chunk FourCC '%s' already used at %s:%d — FourCCs "
                 "must be globally unique so a reader can never "
                 "mistake one chunk format for another"
                 % (tag, os.path.relpath(sites[0][0], root),
                    sites[0][1])))
    if not check_registry:
        return
    if not os.path.exists(registry_path):
        findings.append(
            (registry_path, 1, "chunks",
             "chunk registry missing; generate it with "
             "--update-chunk-registry"))
        return
    with open(registry_path) as f:
        reg = json.load(f)
    version = current_checkpoint_version(files, root, cache)
    reg_version = reg.get("checkpoint_version")
    reg_sers = reg.get("serializers", {})
    reg_tags = reg.get("fourccs", {})
    for tag in sorted(tags):
        if tag not in reg_tags:
            path, line = tags[tag][0]
            findings.append(
                (path, line, "chunks",
                 "chunk FourCC '%s' is not in the chunk registry — "
                 "review the format change, then run "
                 "--update-chunk-registry" % tag))
    sites = collect_serializers(files, cache)
    current = serializer_registry(sites)
    for name in sorted(current):
        path, line, _entries = sites[name]
        seq = current[name]
        if name not in reg_sers:
            findings.append(
                (path, line, "chunks",
                 "serializer %s is not in the chunk registry — run "
                 "--update-chunk-registry" % name))
        elif reg_sers[name] != seq:
            if (version is not None and reg_version is not None and
                    version == reg_version):
                findings.append(
                    (path, line, "chunks",
                     "serializer %s changed its call sequence "
                     "[%s] -> [%s] but kCheckpointVersion is still "
                     "%d — an old checkpoint would be misread with "
                     "no way to tell; bump the version in "
                     "checkpoint.hh, then run --update-chunk-registry"
                     % (name, ",".join(reg_sers[name]) or "<empty>",
                        ",".join(seq) or "<empty>", version)))
            else:
                findings.append(
                    (path, line, "chunks",
                     "serializer %s changed its call sequence and "
                     "kCheckpointVersion was bumped — run "
                     "--update-chunk-registry to re-baseline" % name))
    # Stale registry entries (deleted functions/tags) are not
    # findings: they cannot corrupt anything, and the next --update
    # cleans them.


# --------------------------------------------------------------------------
# Annotation grammar, centrally enforced: every annotation kind
# requires a non-empty reason/value (the individual passes used to
# accept an empty one silently), and proto:skip must name its key.
# --------------------------------------------------------------------------


def check_annotation_grammar(path, annotations, findings):
    for line in sorted(annotations):
        for kind, reason in annotations[line]:
            if not reason.strip():
                findings.append(
                    (path, line, "annotation",
                     "%s() needs a reason: %s(<why this is safe>)"
                     % (kind, kind)))
            elif kind == "proto:skip" and ":" not in reason:
                findings.append(
                    (path, line, "annotation",
                     "proto:skip(%s) must use the form "
                     "proto:skip(<key>: <reason>)" % reason))


# --------------------------------------------------------------------------
# Driver.
# --------------------------------------------------------------------------


class FileCache:
    def __init__(self):
        self._raw = {}
        self._scrubbed = {}
        self._keyed = {}
        self._tokens = {}
        self._tsa = {}

    def override(self, path, text):
        """Replace one file's contents (mutation tests lint a mutant
        without re-reading and re-tokenizing the rest of the tree)."""
        path = os.path.abspath(path)
        for cache in (self._scrubbed, self._keyed, self._tokens,
                      self._tsa):
            cache.pop(path, None)
        self._raw[path] = text

    def get_raw(self, path):
        path = os.path.abspath(path)
        if path not in self._raw:
            with open(path, "r", encoding="utf-8", errors="replace") as f:
                self._raw[path] = f.read()
        return self._raw[path]

    def get_scrubbed(self, path):
        path = os.path.abspath(path)
        if path not in self._scrubbed:
            self._scrubbed[path] = scrub(self.get_raw(path))
        return self._scrubbed[path]

    def get_scrubbed_keep_strings(self, path):
        """Comment-blanked text with string literals intact (the
        protocol and chunk checkers read keys out of literals)."""
        path = os.path.abspath(path)
        if path not in self._keyed:
            text, _annotations = scrub(self.get_raw(path),
                                       keep_strings=True)
            self._keyed[path] = text
        return self._keyed[path]

    def get_tokens(self, path):
        """Token stream with thread-safety macros stripped (see
        strip_tsa_macros) plus the comment annotations."""
        path = os.path.abspath(path)
        if path not in self._tokens:
            scrubbed, annotations = self.get_scrubbed(path)
            toks, tsa = strip_tsa_macros(tokenize(scrubbed))
            self._tokens[path] = (toks, annotations)
            self._tsa[path] = tsa
        return self._tokens[path]

    def get_tsa(self, path):
        path = os.path.abspath(path)
        if path not in self._tsa:
            self.get_tokens(path)
        return self._tsa[path]


def collect_files(root, explicit):
    if explicit:
        return [os.path.abspath(p) for p in explicit]
    out = []
    src = os.path.join(root, "src")
    for dirpath, _dirs, names in os.walk(src):
        for nm in sorted(names):
            if nm.endswith((".cc", ".hh", ".h", ".hpp", ".cpp")):
                out.append(os.path.join(dirpath, nm))
    return sorted(out)


def build_ir_text(files, file_cache):
    classes = {}
    for path in files:
        toks, annotations = file_cache.get_tokens(path)
        parse_file_text_backend(os.path.abspath(path), toks, annotations,
                                classes)
    return classes


def main(argv):
    ap = argparse.ArgumentParser(
        description="Tempest domain-aware static analysis")
    ap.add_argument("--root", default=None,
                    help="repository root (default: two levels above "
                         "this script)")
    ap.add_argument("--all", action="store_true",
                    help="run every checker (default when no checker "
                         "flag is given)")
    ap.add_argument("--checkpoint", action="store_true",
                    help="run the checkpoint-coverage checker")
    ap.add_argument("--determinism", action="store_true",
                    help="run the determinism checker")
    ap.add_argument("--hygiene", action="store_true",
                    help="run the generic hygiene checker")
    ap.add_argument("--lock", action="store_true",
                    help="run the lock-discipline checker")
    ap.add_argument("--protocol", action="store_true",
                    help="run the protocol-schema checker")
    ap.add_argument("--chunks", action="store_true",
                    help="run the chunk-registry checker")
    ap.add_argument("--chunk-registry", default=None,
                    help="registry JSON baseline (default: "
                         "chunk_registry.json next to this script; "
                         "only compared on full-tree runs unless "
                         "given explicitly)")
    ap.add_argument("--update-chunk-registry", action="store_true",
                    help="re-baseline the chunk registry from the "
                         "current tree and exit")
    ap.add_argument("--backend", choices=["auto", "libclang", "text"],
                    default="auto")
    ap.add_argument("--compile-commands", default=None,
                    help="compile_commands.json for the libclang backend")
    ap.add_argument("files", nargs="*",
                    help="explicit files to lint (default: src/ tree)")
    opts = ap.parse_args(argv)

    root = opts.root or os.path.abspath(
        os.path.join(os.path.dirname(os.path.abspath(__file__)), "..",
                     ".."))
    files = collect_files(root, opts.files)
    if not files:
        print("tempest_lint: no input files", file=sys.stderr)
        return 2

    none_given = not (opts.checkpoint or opts.determinism or
                      opts.hygiene or opts.lock or opts.protocol or
                      opts.chunks)
    run_ckpt = opts.checkpoint or opts.all or none_given
    run_det = opts.determinism or opts.all or none_given
    run_hyg = opts.hygiene or opts.all or none_given
    run_lock = opts.lock or opts.all or none_given
    run_proto = opts.protocol or opts.all or none_given
    run_chunks = opts.chunks or opts.all or none_given

    registry_path = opts.chunk_registry or os.path.join(
        os.path.dirname(os.path.abspath(__file__)),
        "chunk_registry.json")
    # Registry comparison needs the whole tree to be meaningful: a
    # partial file list would mis-read every absent class as
    # unchanged and every fixture as unregistered. Explicit
    # --chunk-registry opts in regardless (fixture tests use it).
    check_registry = bool(opts.chunk_registry) or not opts.files

    cache = FileCache()
    findings = []

    if opts.update_chunk_registry:
        update_chunk_registry(files, cache, registry_path, root)
        print("tempest_lint: wrote %s"
              % os.path.relpath(registry_path, root))
        return 0

    classes = None
    if run_ckpt:
        if opts.backend in ("auto", "libclang"):
            try:
                classes = build_ir_libclang(files, root,
                                            opts.compile_commands, cache)
                implementers = [c for c in classes.values()
                                if c.save or c.load]
                if not implementers and opts.backend == "auto":
                    # Sanity cross-check: libclang saw no checkpoint
                    # classes at all; trust the text parser instead.
                    classes = None
            except Exception as e:  # noqa: libclang is best-effort
                if opts.backend == "libclang":
                    print("tempest_lint: libclang backend failed: %s"
                          % e, file=sys.stderr)
                    return 2
                classes = None
        if classes is None:
            classes = build_ir_text(files, cache)

        check_checkpoint(classes, findings)
    if run_chunks:
        check_chunks(files, cache, registry_path, root,
                     check_registry, findings)

    lock_model = None
    if run_lock:
        lock_model = collect_lock_model(files, cache)

    for path in files:
        apath = os.path.abspath(path)
        toks, annotations = cache.get_tokens(path)
        check_annotation_grammar(apath, annotations, findings)
        if run_det:
            check_determinism(apath, toks, annotations, findings)
        if run_hyg:
            check_hygiene(apath, cache.get_raw(path), toks, findings)
        if run_lock:
            guarded, decl_skip, requires_funcs = lock_model
            check_lock_discipline(apath, toks, cache.get_tsa(apath),
                                  annotations, guarded, decl_skip,
                                  requires_funcs, findings)
        if run_proto:
            check_protocol(apath, toks, annotations, cache, findings)

    findings.sort(key=lambda f: (f[0], f[1]))
    for path, line, checker, msg in findings:
        rel = os.path.relpath(path, root)
        print("%s:%d: [%s] %s" % (rel, line, checker, msg))
    if findings:
        print("tempest_lint: %d finding(s)" % len(findings),
              file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

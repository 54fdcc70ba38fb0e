#include "mqsp/circuit/qasm.hpp"

#include "mqsp/support/error.hpp"
#include "mqsp/support/parse.hpp"

#include <cctype>
#include <charconv>
#include <istream>
#include <iterator>
#include <ostream>
#include <sstream>
#include <string_view>
#include <utility>

namespace mqsp {

namespace {

/// Append a decimal integer.
void appendInteger(std::string& out, std::uint64_t value) {
    char buffer[24];
    const auto result = std::to_chars(std::begin(buffer), std::end(buffer), value);
    out.append(buffer, result.ptr);
}

/// Append an angle with 17 significant digits — byte-identical to an
/// ostream at setprecision(17) (printf "%.17g"), and exact on read-back.
void appendAngle(std::string& out, double value) {
    char buffer[32];
    const auto result = std::to_chars(std::begin(buffer), std::end(buffer), value,
                                      std::chars_format::general, 17);
    out.append(buffer, result.ptr);
}

void appendSite(std::string& out, std::size_t site) {
    out += "q[";
    appendInteger(out, site);
    out += ']';
}

/// The header, comment and qreg lines.
void appendPreamble(std::string& out, const Circuit& circuit) {
    out += "MQSPQASM 1.0;\n// ";
    out += circuit.name();
    out += "\nqreg q[";
    appendInteger(out, circuit.numQudits());
    out += "] = [";
    const auto& dims = circuit.dimensions();
    for (std::size_t i = 0; i < dims.size(); ++i) {
        if (i > 0) {
            out += ", ";
        }
        appendInteger(out, dims[i]);
    }
    out += "];\n";
}

/// " (<levelA>, <levelB>" — the opening of a two-level gate's parameters.
void appendLevels(std::string& out, const Operation& op) {
    out += " (";
    appendInteger(out, op.levelA);
    out += ", ";
    appendInteger(out, op.levelB);
}

/// One gate statement line.
void appendStatement(std::string& out, const Operation& op) {
    switch (op.kind) {
    case GateKind::GivensRotation:
        out += "rxy ";
        appendSite(out, op.target);
        appendLevels(out, op);
        out += ", ";
        appendAngle(out, op.theta);
        out += ", ";
        appendAngle(out, op.phi);
        out += ')';
        break;
    case GateKind::PhaseRotation:
        out += "rz ";
        appendSite(out, op.target);
        appendLevels(out, op);
        out += ", ";
        appendAngle(out, op.theta);
        out += ')';
        break;
    case GateKind::Hadamard:
        out += "h ";
        appendSite(out, op.target);
        break;
    case GateKind::Shift:
        out += "x ";
        appendSite(out, op.target);
        out += " (+";
        appendInteger(out, op.shiftAmount);
        out += ')';
        break;
    case GateKind::LevelSwap:
        out += "swp ";
        appendSite(out, op.target);
        appendLevels(out, op);
        out += ')';
        break;
    }
    if (!op.controls.empty()) {
        out += " ctl ";
        for (std::size_t i = 0; i < op.controls.size(); ++i) {
            if (i > 0) {
                out += ", ";
            }
            appendSite(out, op.controls[i].qudit);
            out += '=';
            appendInteger(out, op.controls[i].level);
        }
    }
    out += ";\n";
}

/// emitQasm hands its text to the stream in chunks of about this size.
constexpr std::size_t kEmitChunkBytes = std::size_t{1} << 16;

} // namespace

void emitQasm(std::ostream& out, const Circuit& circuit) {
    std::string chunk;
    chunk.reserve(kEmitChunkBytes + 256);
    appendPreamble(chunk, circuit);
    for (const auto& op : circuit.operations()) {
        appendStatement(chunk, op);
        if (chunk.size() >= kEmitChunkBytes) {
            out.write(chunk.data(), static_cast<std::streamsize>(chunk.size()));
            chunk.clear();
        }
    }
    out.write(chunk.data(), static_cast<std::streamsize>(chunk.size()));
}

std::string toQasm(const Circuit& circuit) {
    std::string text;
    appendPreamble(text, circuit);
    for (const auto& op : circuit.operations()) {
        appendStatement(text, op);
    }
    return text;
}

namespace {

/// Strip a trailing `//` comment and surrounding whitespace; an empty
/// result means the line carries no statement.
[[nodiscard]] std::string_view stripLine(std::string_view raw) {
    raw = raw.substr(0, raw.find("//"));
    const auto begin = raw.find_first_not_of(" \t\r");
    if (begin == std::string_view::npos) {
        return {};
    }
    const auto end = raw.find_last_not_of(" \t\r");
    return raw.substr(begin, end - begin + 1);
}

[[nodiscard]] bool isSpace(char ch) {
    return std::isspace(static_cast<unsigned char>(ch)) != 0;
}

[[nodiscard]] bool isDigit(char ch) {
    return std::isdigit(static_cast<unsigned char>(ch)) != 0;
}

[[nodiscard]] bool isWordChar(char ch) {
    return std::isalnum(static_cast<unsigned char>(ch)) != 0 || ch == '.' || ch == '_';
}

/// Characters a number token may span; the token must parse whole.
[[nodiscard]] bool isNumberChar(char ch) {
    return std::isalnum(static_cast<unsigned char>(ch)) != 0 || ch == '.' || ch == '+' ||
           ch == '-';
}

/// Recursive-descent scanner over ONE stripped dialect line. Both the
/// streaming reader and the single-statement entry point drive it; the
/// line number is carried only for the "parseQasm: line N: ..." messages.
class LineParser {
public:
    LineParser(std::string_view line, std::size_t lineNumber)
        : line_(line), lineNumber_(lineNumber) {}

    [[noreturn]] void fail(std::string_view message) const {
        detail::throwInvalidArgument("parseQasm: line " + std::to_string(lineNumber_) + ": " +
                                     std::string(message));
    }

    /// "MQSPQASM 1.0;" — the whole header line.
    void header() {
        const std::string_view keyword = word();
        if (keyword != "MQSPQASM") {
            fail("expected MQSPQASM header, got '" + std::string(keyword) + "'");
        }
        const std::string_view version = word();
        if (version != "1.0") {
            fail("unsupported version '" + std::string(version) + "'");
        }
        expect(';', "header");
    }

    /// "qreg q[n] = [d, ...];" — the whole register line.
    [[nodiscard]] Dimensions qreg() {
        if (word() != "qreg") {
            fail("expected qreg declaration");
        }
        const std::size_t count = site();
        expect('=', "qreg dimensions");
        expect('[', "qreg dimensions");
        Dimensions dims;
        while (true) {
            dims.push_back(static_cast<Dimension>(integer()));
            if (!consume(',')) {
                break;
            }
        }
        expect(']', "qreg dimensions");
        expect(';', "qreg declaration");
        if (dims.size() != count) {
            fail("qreg declares " + std::to_string(count) + " sites but lists " +
                 std::to_string(dims.size()) + " dimensions");
        }
        return dims;
    }

    /// One whole gate statement through the terminating ';'. The returned
    /// operation is syntax-only — the caller validates it against the
    /// register (and re-raises through fail for the line-numbered message).
    /// `controls` is scratch space reused across statements, so the
    /// returned operation's control list is allocated once, at its size.
    [[nodiscard]] Operation gateStatement(std::vector<Control>& controls) {
        const std::string_view gate = word();
        if (gate.empty()) {
            fail("expected a gate name");
        }
        const std::size_t target = site();

        Operation op;
        if (gate == "rxy") {
            expect('(', "rxy parameters");
            const auto a = static_cast<Level>(integer());
            expect(',', "rxy parameters");
            const auto b = static_cast<Level>(integer());
            expect(',', "rxy parameters");
            const double theta = number();
            expect(',', "rxy parameters");
            const double phi = number();
            expect(')', "rxy parameters");
            op = Operation::givens(target, a, b, theta, phi);
        } else if (gate == "rz") {
            expect('(', "rz parameters");
            const auto a = static_cast<Level>(integer());
            expect(',', "rz parameters");
            const auto b = static_cast<Level>(integer());
            expect(',', "rz parameters");
            const double theta = number();
            expect(')', "rz parameters");
            op = Operation::phase(target, a, b, theta);
        } else if (gate == "h") {
            op = Operation::hadamard(target);
        } else if (gate == "x") {
            expect('(', "shift amount");
            expect('+', "shift amount");
            const auto amount = static_cast<Level>(integer());
            expect(')', "shift amount");
            op = Operation::shift(target, amount);
        } else if (gate == "swp") {
            expect('(', "swap levels");
            const auto a = static_cast<Level>(integer());
            expect(',', "swap levels");
            const auto b = static_cast<Level>(integer());
            expect(')', "swap levels");
            op = Operation::levelSwap(target, a, b);
        } else {
            fail("unknown gate '" + std::string(gate) + "'");
        }

        skipSpace();
        if (line_.substr(cursor_, 3) == "ctl") {
            cursor_ += 3;
            controls.clear();
            do {
                const std::size_t qudit = site();
                expect('=', "control level");
                controls.push_back({qudit, static_cast<Level>(integer())});
            } while (consume(','));
            op.controls.assign(controls.begin(), controls.end());
        }
        expect(';', "statement");
        skipSpace();
        if (cursor_ != line_.size()) {
            fail("trailing characters after ';'");
        }
        return op;
    }

private:
    void skipSpace() {
        while (cursor_ < line_.size() && isSpace(line_[cursor_])) {
            ++cursor_;
        }
    }

    bool consume(char ch) {
        skipSpace();
        if (cursor_ < line_.size() && line_[cursor_] == ch) {
            ++cursor_;
            return true;
        }
        return false;
    }

    void expect(char ch, const char* what) {
        if (!consume(ch)) {
            fail(std::string("expected '") + ch + "' (" + what + ")");
        }
    }

    /// The maximal run from the cursor of characters matching `accept`.
    template <typename Accept>
    std::string_view run(Accept accept) {
        const std::size_t start = cursor_;
        while (cursor_ < line_.size() && accept(line_[cursor_])) {
            ++cursor_;
        }
        return line_.substr(start, cursor_ - start);
    }

    std::string_view word() {
        skipSpace();
        return run(isWordChar);
    }

    std::uint64_t integer() {
        skipSpace();
        const std::string_view digits = run(isDigit);
        if (digits.empty()) {
            fail("expected an integer");
        }
        const auto value = parse::tryUint64(digits);
        if (!value.has_value()) {
            // Digits-only text can only miss by overflowing 64 bits.
            fail("integer '" + parse::clipForMessage(digits) + "' overflows");
        }
        return *value;
    }

    /// A decimal number with an optional leading '-' or '+', parsed whole:
    /// hex floats, values past the double range and trailing junk fail.
    /// Non-finite spellings (inf, nan) parse here; validateOperation
    /// refuses them as angles.
    double number() {
        skipSpace();
        std::string_view token = run(isNumberChar);
        if (token.size() > 1 && token.front() == '+' && token[1] != '-') {
            token.remove_prefix(1); // from_chars takes no '+'
        }
        double value = 0.0;
        const char* last = token.data() + token.size();
        const auto [ptr, ec] = std::from_chars(token.data(), last, value);
        if (token.empty() || ec != std::errc{} || ptr != last) {
            fail("expected a number");
        }
        return value;
    }

    /// "q[<index>]" -> index.
    std::size_t site() {
        skipSpace();
        if (cursor_ >= line_.size() || line_[cursor_] != 'q') {
            fail("expected a qudit reference q[i]");
        }
        ++cursor_;
        expect('[', "qudit reference");
        const auto index = static_cast<std::size_t>(integer());
        expect(']', "qudit reference");
        return index;
    }

    std::string_view line_;
    std::size_t cursor_ = 0;
    std::size_t lineNumber_;
};

/// Parse + register-validate one stripped statement line, re-raising any
/// admissibility error with the line-numbered prefix.
[[nodiscard]] Operation statementOn(std::string_view line, std::size_t lineNumber,
                                    const MixedRadix& radix, std::vector<Control>& controls) {
    LineParser parser(line, lineNumber);
    Operation op = parser.gateStatement(controls);
    try {
        validateOperation(op, radix);
    } catch (const InvalidArgumentError& error) {
        parser.fail(error.what());
    }
    return op;
}

} // namespace

GateStream::GateStream(std::istream& in) : in_(&in) {
    const std::string_view header = nextStatement();
    if (header.empty()) {
        LineParser(header, lineNumber_).fail("missing MQSPQASM header");
    }
    LineParser(header, lineNumber_).header();
    const std::string_view qreg = nextStatement();
    if (qreg.empty()) {
        LineParser(qreg, lineNumber_).fail("missing qreg declaration");
    }
    LineParser qregParser(qreg, lineNumber_);
    radix_ = MixedRadix(qregParser.qreg());
}

std::string_view GateStream::nextStatement() {
    while (std::getline(*in_, line_)) {
        ++lineNumber_;
        const std::string_view statement = stripLine(line_);
        if (!statement.empty()) {
            return statement;
        }
    }
    return {};
}

std::optional<Operation> GateStream::next() {
    if (eof_) {
        return std::nullopt;
    }
    const std::string_view statement = nextStatement();
    if (statement.empty()) {
        eof_ = true;
        return std::nullopt;
    }
    Operation op = statementOn(statement, lineNumber_, radix_, controls_);
    ++opsRead_;
    return op;
}

Circuit parseQasm(std::istream& in) {
    GateStream stream(in);
    Circuit circuit(stream.dimensions(), "parsed");
    // GateStream validated every operation against this register already.
    while (auto op = stream.next()) {
        circuit.ops_.push_back(std::move(*op));
    }
    return circuit;
}

Circuit parseQasmString(const std::string& text) {
    std::istringstream stream(text);
    return parseQasm(stream);
}

Operation parseQasmStatement(const std::string& text, const MixedRadix& radix,
                             std::size_t lineNumber) {
    const std::string_view stripped = stripLine(text);
    if (stripped.empty()) {
        LineParser(stripped, lineNumber).fail("expected a gate name");
    }
    std::vector<Control> controls;
    return statementOn(stripped, lineNumber, radix, controls);
}

} // namespace mqsp

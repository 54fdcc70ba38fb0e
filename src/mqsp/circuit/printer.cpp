#include "mqsp/circuit/printer.hpp"

#include "mqsp/support/error.hpp"
#include "mqsp/support/parse.hpp"

#include <iomanip>
#include <istream>
#include <ostream>
#include <sstream>
#include <string_view>

namespace mqsp {

void printCircuitText(std::ostream& out, const Circuit& circuit) {
    out << "circuit \"" << circuit.name() << "\" on "
        << formatDimensionSpec(circuit.dimensions()) << " (" << circuit.numQudits()
        << " qudits)\n";
    std::size_t index = 0;
    for (const auto& op : circuit.operations()) {
        out << std::setw(5) << index++ << ": " << op.toString() << '\n';
    }
    const auto stats = circuit.stats();
    out << "ops=" << stats.numOperations << " rotations=" << stats.numRotations
        << " phases=" << stats.numPhases << " medianControls=" << stats.medianControls
        << " maxControls=" << stats.maxControls << " depth~=" << stats.depthEstimate << '\n';
}

std::string circuitToText(const Circuit& circuit) {
    std::ostringstream out;
    printCircuitText(out, circuit);
    return out.str();
}

namespace {

const char* kindName(GateKind kind) {
    switch (kind) {
    case GateKind::GivensRotation:
        return "givens";
    case GateKind::PhaseRotation:
        return "phase";
    case GateKind::Hadamard:
        return "hadamard";
    case GateKind::Shift:
        return "shift";
    case GateKind::LevelSwap:
        return "levelswap";
    }
    detail::throwInternal("kindName: unknown gate kind");
}

GateKind kindFromName(std::string_view name) {
    if (name == "givens") {
        return GateKind::GivensRotation;
    }
    if (name == "phase") {
        return GateKind::PhaseRotation;
    }
    if (name == "hadamard") {
        return GateKind::Hadamard;
    }
    if (name == "shift") {
        return GateKind::Shift;
    }
    if (name == "levelswap") {
        return GateKind::LevelSwap;
    }
    detail::throwInvalidArgument("parseCircuitJsonLines: unknown gate kind '" +
                                 std::string(name) + "'");
}

// Minimal JSON value scanners for the flat objects we emit. The emitted
// format is fully under our control, so a full JSON parser is unnecessary;
// these helpers still validate structure and throw on malformed input.
// They scan views of the line, and compose a message only to throw it.

/// Position just past `"key":` in `line`, or npos.
std::size_t valueStart(std::string_view line, std::string_view key) {
    for (auto pos = line.find(key); pos != std::string_view::npos; pos = line.find(key, pos + 1)) {
        const auto after = pos + key.size();
        if (pos > 0 && line[pos - 1] == '"' && line.substr(after, 2) == "\":") {
            return after + 2;
        }
    }
    return std::string_view::npos;
}

[[noreturn]] void missingKey(std::string_view line, std::string_view key) {
    detail::throwInvalidArgument("parseCircuitJsonLines: missing key '" + std::string(key) +
                                 "' in: " + parse::clipForMessage(line));
}

std::string_view extractString(std::string_view line, std::string_view key) {
    const auto pos = valueStart(line, key);
    if (pos == std::string_view::npos || pos >= line.size() || line[pos] != '"') {
        missingKey(line, key);
    }
    const auto start = pos + 1;
    const auto end = line.find('"', start);
    requireThat(end != std::string_view::npos, "parseCircuitJsonLines: unterminated string value");
    return line.substr(start, end - start);
}

double extractNumber(std::string_view line, std::string_view key) {
    const auto start = valueStart(line, key);
    if (start == std::string_view::npos) {
        missingKey(line, key);
    }
    auto end = line.find_first_of(",}]", start);
    if (end == std::string_view::npos) {
        end = line.size();
    }
    const auto text = line.substr(start, end - start);
    const auto value = parse::tryDouble(text);
    if (!value.has_value()) {
        detail::throwInvalidArgument("parseCircuitJsonLines: value for key '" + std::string(key) +
                                     "' in: " + parse::clipForMessage(line) +
                                     " expects a number, got '" + parse::clipForMessage(text) +
                                     "'");
    }
    return *value;
}

std::vector<Control> extractControls(std::string_view line) {
    std::vector<Control> controls;
    const auto pos = valueStart(line, "controls");
    if (pos == std::string_view::npos || pos >= line.size() || line[pos] != '[') {
        detail::throwInvalidArgument("parseCircuitJsonLines: missing controls array in: " +
                                     parse::clipForMessage(line));
    }
    auto cursor = pos + 1;
    while (cursor < line.size() && line[cursor] != ']') {
        if (line[cursor] == '[') {
            const auto comma = line.find(',', cursor);
            const auto close = line.find(']', cursor);
            if (comma == std::string_view::npos || close == std::string_view::npos ||
                comma >= close) {
                detail::throwInvalidArgument("parseCircuitJsonLines: malformed control pair in: " +
                                             parse::clipForMessage(line));
            }
            const auto quditText = line.substr(cursor + 1, comma - cursor - 1);
            const auto levelText = line.substr(comma + 1, close - comma - 1);
            const auto qudit = parse::tryUint64(quditText);
            const auto level = parse::tryUint64(levelText);
            if (!qudit.has_value() || !level.has_value()) {
                detail::throwInvalidArgument(
                    "parseCircuitJsonLines: control pair in: " + parse::clipForMessage(line) +
                    " expects a non-negative integer, got '" +
                    parse::clipForMessage(qudit.has_value() ? levelText : quditText) + "'");
            }
            controls.push_back({static_cast<std::size_t>(*qudit), static_cast<Level>(*level)});
            cursor = close + 1;
        } else {
            ++cursor;
        }
    }
    if (cursor >= line.size()) {
        detail::throwInvalidArgument("parseCircuitJsonLines: unterminated controls array in: " +
                                     parse::clipForMessage(line));
    }
    return controls;
}

} // namespace

void printCircuitJsonLines(std::ostream& out, const Circuit& circuit) {
    out << "{\"name\":\"" << circuit.name() << "\",\"dims\":[";
    const auto& dims = circuit.dimensions();
    for (std::size_t i = 0; i < dims.size(); ++i) {
        if (i > 0) {
            out << ',';
        }
        out << dims[i];
    }
    out << "]}\n";
    out << std::setprecision(17);
    for (const auto& op : circuit.operations()) {
        out << "{\"kind\":\"" << kindName(op.kind) << "\",\"target\":" << op.target
            << ",\"levelA\":" << op.levelA << ",\"levelB\":" << op.levelB
            << ",\"theta\":" << op.theta << ",\"phi\":" << op.phi
            << ",\"shift\":" << op.shiftAmount << ",\"controls\":[";
        for (std::size_t i = 0; i < op.controls.size(); ++i) {
            if (i > 0) {
                out << ',';
            }
            out << '[' << op.controls[i].qudit << ',' << op.controls[i].level << ']';
        }
        out << "]}\n";
    }
}

Circuit parseCircuitJsonLines(std::istream& in) {
    std::string header;
    requireThat(static_cast<bool>(std::getline(in, header)),
                "parseCircuitJsonLines: missing header line");
    const std::string name(extractString(header, "name"));
    Dimensions dims;
    const std::string needle = "\"dims\":[";
    const auto pos = header.find(needle);
    requireThat(pos != std::string::npos, "parseCircuitJsonLines: missing dims array");
    auto cursor = pos + needle.size();
    while (cursor < header.size() && header[cursor] != ']') {
        const auto end = header.find_first_of(",]", cursor);
        if (end == std::string::npos) {
            detail::throwInvalidArgument("parseCircuitJsonLines: unterminated dims in: " +
                                         parse::clipForMessage(header));
        }
        const auto entry = std::string_view(header).substr(cursor, end - cursor);
        const auto dim = parse::tryUint64(entry);
        if (!dim.has_value()) {
            detail::throwInvalidArgument("parseCircuitJsonLines: dims entry in: " +
                                         parse::clipForMessage(header) +
                                         " expects a non-negative integer, got '" +
                                         parse::clipForMessage(entry) + "'");
        }
        dims.push_back(static_cast<Dimension>(*dim));
        cursor = end;
        if (header[cursor] == ',') {
            ++cursor;
        }
    }

    Circuit circuit(dims, name);
    std::string line;
    while (std::getline(in, line)) {
        if (line.empty()) {
            continue;
        }
        Operation op;
        op.kind = kindFromName(extractString(line, "kind"));
        op.target = static_cast<std::size_t>(extractNumber(line, "target"));
        op.levelA = static_cast<Level>(extractNumber(line, "levelA"));
        op.levelB = static_cast<Level>(extractNumber(line, "levelB"));
        op.theta = extractNumber(line, "theta");
        op.phi = extractNumber(line, "phi");
        op.shiftAmount = static_cast<Level>(extractNumber(line, "shift"));
        op.controls = extractControls(line);
        circuit.append(std::move(op));
    }
    return circuit;
}

} // namespace mqsp

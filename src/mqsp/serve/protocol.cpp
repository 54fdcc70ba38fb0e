#include "mqsp/serve/protocol.hpp"

#include "mqsp/support/error.hpp"
#include "mqsp/support/parse.hpp"

#include <algorithm>
#include <cctype>

namespace mqsp::serve {

namespace {

[[nodiscard]] std::string lowercased(std::string_view text) {
    std::string out(text);
    std::transform(out.begin(), out.end(), out.begin(),
                   [](unsigned char ch) { return static_cast<char>(std::tolower(ch)); });
    return out;
}

/// A token plus where it ended in the raw line — the end offset is what
/// lets `--gate` capture the rest of the line verbatim.
struct Token {
    std::string text;
    std::size_t end = 0;
};

[[nodiscard]] std::vector<Token> tokenize(std::string_view line) {
    std::vector<Token> tokens;
    std::size_t i = 0;
    while (i < line.size()) {
        while (i < line.size() && (line[i] == ' ' || line[i] == '\t' || line[i] == '\r')) {
            ++i;
        }
        const std::size_t start = i;
        while (i < line.size() && line[i] != ' ' && line[i] != '\t' && line[i] != '\r') {
            ++i;
        }
        if (i > start) {
            tokens.push_back({std::string(line.substr(start, i - start)), i});
        }
    }
    return tokens;
}

/// The raw line from `offset` on, trimmed of surrounding whitespace.
[[nodiscard]] std::string restOfLine(std::string_view line, std::size_t offset) {
    std::string_view rest = line.substr(offset);
    while (!rest.empty() && (rest.front() == ' ' || rest.front() == '\t')) {
        rest.remove_prefix(1);
    }
    while (!rest.empty() &&
           (rest.back() == ' ' || rest.back() == '\t' || rest.back() == '\r')) {
        rest.remove_suffix(1);
    }
    return std::string(rest);
}

[[nodiscard]] Verb verbFromName(const std::string& name, std::string_view token) {
    if (name == "prep") {
        return Verb::Prep;
    }
    if (name == "verify") {
        return Verb::Verify;
    }
    if (name == "batch") {
        return Verb::Batch;
    }
    if (name == "drop") {
        return Verb::Drop;
    }
    if (name == "gc") {
        return Verb::Gc;
    }
    if (name == "stats?" || name == "stats") {
        return Verb::Stats;
    }
    if (name == "limits?" || name == "limits") {
        return Verb::Limits;
    }
    if (name == "stream") {
        return Verb::Stream;
    }
    if (name == "append") {
        return Verb::Append;
    }
    if (name == "reverify") {
        return Verb::Reverify;
    }
    if (name == "help") {
        return Verb::Help;
    }
    if (name == "quit" || name == "exit") {
        return Verb::Quit;
    }
    detail::throwInvalidArgument("unknown command '" + parse::clipForMessage(token) +
                                 "' (try HELP)");
}

} // namespace

const char* verbName(Verb verb) noexcept {
    switch (verb) {
    case Verb::Prep:
        return "PREP";
    case Verb::Verify:
        return "VERIFY";
    case Verb::Batch:
        return "BATCH";
    case Verb::Drop:
        return "DROP";
    case Verb::Gc:
        return "GC";
    case Verb::Stats:
        return "STATS?";
    case Verb::Limits:
        return "LIMITS?";
    case Verb::Help:
        return "HELP";
    case Verb::Quit:
        return "QUIT";
    case Verb::Stream:
        return "STREAM";
    case Verb::Append:
        return "APPEND";
    case Verb::Reverify:
        return "REVERIFY";
    }
    return "?";
}

const char* verbMetricKey(Verb verb) noexcept {
    switch (verb) {
    case Verb::Prep:
        return "prep";
    case Verb::Verify:
        return "verify";
    case Verb::Batch:
        return "batch";
    case Verb::Drop:
        return "drop";
    case Verb::Gc:
        return "gc";
    case Verb::Stats:
        return "stats";
    case Verb::Limits:
        return "limits";
    case Verb::Help:
        return "help";
    case Verb::Quit:
        return "quit";
    case Verb::Stream:
        return "stream";
    case Verb::Append:
        return "append";
    case Verb::Reverify:
        return "reverify";
    }
    return "?";
}

bool isReadPathVerb(Verb verb) noexcept {
    switch (verb) {
    case Verb::Verify:
    case Verb::Batch:
    case Verb::Stats:
    case Verb::Limits:
    case Verb::Help:
        return true;
    case Verb::Prep:
    case Verb::Drop:
    case Verb::Gc:
    case Verb::Quit:
    case Verb::Stream:
    case Verb::Append:
    case Verb::Reverify:
        return false;
    }
    return false;
}

const std::string* Request::option(std::string_view key) const noexcept {
    const std::string* found = nullptr;
    for (const auto& [name, value] : options) {
        if (name == key) {
            found = &value;
        }
    }
    return found;
}

Request parseRequest(std::string_view line) {
    const std::vector<Token> tokens = tokenize(line);
    requireThat(!tokens.empty(), "empty command line (try HELP)");

    Request request;
    const std::string head = lowercased(tokens.front().text);
    const auto colon = head.find(':');
    if (colon != std::string::npos) {
        const std::string verb = head.substr(0, colon);
        if (verb != "prep") {
            detail::throwInvalidArgument("only PREP takes a :<FAMILY> suffix, got '" +
                                         parse::clipForMessage(tokens.front().text) + "'");
        }
        request.verb = Verb::Prep;
        request.family = head.substr(colon + 1);
        requireThat(!request.family.empty(),
                    "PREP requires a state family: PREP:<FAMILY> (e.g. PREP:GHZ)");
        if (request.family.find(':') != std::string::npos) {
            detail::throwInvalidArgument("malformed family in '" +
                                         parse::clipForMessage(tokens.front().text) + "'");
        }
    } else {
        request.verb = verbFromName(head, tokens.front().text);
        requireThat(request.verb != Verb::Prep,
                    "PREP requires a state family: PREP:<FAMILY> (e.g. PREP:GHZ)");
    }

    std::size_t i = 1;
    while (i < tokens.size()) {
        const std::string& token = tokens[i].text;
        if (token.rfind("--", 0) != 0 || token.size() <= 2) {
            detail::throwInvalidArgument("expected an option (--key value), got '" +
                                         parse::clipForMessage(token) + "'");
        }
        const std::string key = token.substr(2);
        for (const char ch : key) {
            if (std::isalnum(static_cast<unsigned char>(ch)) == 0 && ch != '-' && ch != '_') {
                detail::throwInvalidArgument("malformed option name '" +
                                             parse::clipForMessage(token) + "'");
            }
        }
        if (key == "gate") {
            // Gate statements contain spaces: capture everything after the
            // key verbatim (which is why --gate must come last).
            const std::string value = restOfLine(line, tokens[i].end);
            requireThat(!value.empty(),
                        "option '--gate' expects a gate statement to end the line");
            request.options.emplace_back(key, value);
            break;
        }
        if (i + 1 >= tokens.size()) {
            detail::throwInvalidArgument("option '" + parse::clipForMessage(token) +
                                         "' expects a value");
        }
        request.options.emplace_back(key, tokens[i + 1].text);
        i += 2;
    }
    return request;
}

} // namespace mqsp::serve

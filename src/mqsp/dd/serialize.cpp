#include "mqsp/dd/decision_diagram.hpp"

#include "mqsp/support/error.hpp"

#include <iomanip>
#include <istream>
#include <ostream>
#include <sstream>

namespace mqsp {

// Format:
//   mqsp-dd v1
//   dims <d0> <d1> ...
//   root <nodeRef> <re> <im>
//   node <ref> <site> <numEdges> { <childRef|-> <re> <im> <pruned01> } ...
//   end
// Node references are pool indices; the terminal is always pool slot 0 and
// is not listed. An absent root is encoded as "root - 0 0".

void DecisionDiagram::serialize(std::ostream& out) const {
    if (store_ != nullptr && store_->interning()) {
        // A session-backed diagram shares its pool with every other diagram
        // of the session; serialize a reachable-only private copy instead
        // of dumping the whole session store.
        compactedCopy().serialize(out);
        return;
    }
    out << "mqsp-dd v1\n";
    out << "dims";
    for (const auto dim : radix_.dimensions()) {
        out << ' ' << dim;
    }
    out << '\n';
    out << std::setprecision(17);
    if (root_ == kNoNode) {
        out << "root - 0 0\n";
    } else {
        out << "root " << root_ << ' ' << rootWeight_.real() << ' ' << rootWeight_.imag()
            << '\n';
    }
    for (std::size_t ref = 1; ref < poolSize(); ++ref) {
        const DDNode& n = node(static_cast<NodeRef>(ref));
        out << "node " << ref << ' ' << n.site << ' ' << n.edges.size();
        for (const auto& edge : n.edges) {
            out << ' ';
            if (edge.isZeroStub()) {
                out << '-';
            } else {
                out << edge.node;
            }
            out << ' ' << edge.weight.real() << ' ' << edge.weight.imag() << ' '
                << (edge.pruned ? 1 : 0);
        }
        out << '\n';
    }
    out << "end\n";
}

DecisionDiagram DecisionDiagram::deserialize(std::istream& in) {
    std::string line;
    requireThat(static_cast<bool>(std::getline(in, line)) && line == "mqsp-dd v1",
                "DecisionDiagram::deserialize: bad magic line");

    requireThat(static_cast<bool>(std::getline(in, line)) && line.rfind("dims", 0) == 0,
                "DecisionDiagram::deserialize: missing dims line");
    Dimensions dims;
    {
        std::istringstream stream(line.substr(4));
        Dimension dim = 0;
        while (stream >> dim) {
            dims.push_back(dim);
        }
    }
    requireThat(!dims.empty(), "DecisionDiagram::deserialize: empty register");

    DecisionDiagram dd;
    dd.radix_ = MixedRadix(dims);
    dd.ensureStore();

    requireThat(static_cast<bool>(std::getline(in, line)) && line.rfind("root", 0) == 0,
                "DecisionDiagram::deserialize: missing root line");
    {
        std::istringstream stream(line.substr(4));
        std::string refText;
        double re = 0.0;
        double im = 0.0;
        requireThat(static_cast<bool>(stream >> refText >> re >> im),
                    "DecisionDiagram::deserialize: malformed root line");
        if (refText == "-") {
            dd.root_ = kNoNode;
        } else {
            dd.root_ = static_cast<NodeRef>(std::stoul(refText));
        }
        dd.rootWeight_ = Complex{re, im};
    }

    while (std::getline(in, line)) {
        if (line == "end") {
            // Validate all references now that the pool is complete.
            for (std::size_t ref = 0; ref < dd.poolSize(); ++ref) {
                for (const auto& edge : dd.node(static_cast<NodeRef>(ref)).edges) {
                    requireThat(edge.isZeroStub() || edge.node < dd.poolSize(),
                                "DecisionDiagram::deserialize: dangling node reference");
                }
            }
            requireThat(dd.root_ == kNoNode || dd.root_ < dd.poolSize(),
                        "DecisionDiagram::deserialize: dangling root reference");
            return dd;
        }
        if (line.rfind("node", 0) != 0) {
            detail::throwInvalidArgument("DecisionDiagram::deserialize: unexpected line: " + line);
        }
        std::istringstream stream(line.substr(4));
        std::size_t ref = 0;
        std::uint32_t site = 0;
        std::size_t numEdges = 0;
        requireThat(static_cast<bool>(stream >> ref >> site >> numEdges),
                    "DecisionDiagram::deserialize: malformed node line");
        requireThat(ref == dd.poolSize(),
                    "DecisionDiagram::deserialize: nodes must be listed in pool order");
        requireThat(site < dims.size(), "DecisionDiagram::deserialize: site out of range");
        requireThat(numEdges == dims[site],
                    "DecisionDiagram::deserialize: edge count does not match dimension");
        DDNode n;
        n.site = site;
        n.edges.resize(numEdges);
        for (auto& edge : n.edges) {
            std::string refText;
            double re = 0.0;
            double im = 0.0;
            int pruned = 0;
            requireThat(static_cast<bool>(stream >> refText >> re >> im >> pruned),
                        "DecisionDiagram::deserialize: malformed edge");
            if (refText == "-") {
                edge = DDEdge{kNoNode, Complex{0.0, 0.0}, pruned != 0};
            } else {
                edge = DDEdge{static_cast<NodeRef>(std::stoul(refText)), Complex{re, im},
                              pruned != 0};
            }
        }
        (void)dd.allocate(n.site, std::move(n.edges));
    }
    detail::throwInvalidArgument("DecisionDiagram::deserialize: missing end line");
}

} // namespace mqsp

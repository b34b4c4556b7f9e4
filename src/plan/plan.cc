#include "plan/plan.h"

#include <sstream>

namespace rapida::plan {

const char* OpKindName(OpKind kind) {
  switch (kind) {
    case OpKind::kVpScan: return "VpScan";
    case OpKind::kTripleGroupLoad: return "TripleGroupLoad";
    case OpKind::kStarJoin: return "StarJoin";
    case OpKind::kMapJoin: return "MapJoin";
    case OpKind::kReduceJoin: return "ReduceJoin";
    case OpKind::kLeftMapJoin: return "LeftMapJoin";
    case OpKind::kLeftReduceJoin: return "LeftReduceJoin";
    case OpKind::kUnion: return "Union";
    case OpKind::kExpandBindings: return "ExpandBindings";
    case OpKind::kNSplitAlphaJoin: return "NSplitAlphaJoin";
    case OpKind::kAggJoin: return "AggJoin";
    case OpKind::kGroupAggregate: return "GroupAggregate";
    case OpKind::kDistinctExtract: return "DistinctExtract";
    case OpKind::kMaterialize: return "Materialize";
    case OpKind::kFinalJoin: return "FinalJoin";
    case OpKind::kParallelRegion: return "ParallelRegion";
    case OpKind::kDecompress: return "Decompress";
  }
  return "Unknown";
}

PlanNode& PhysicalPlan::AddNode(OpKind kind, std::string label,
                                std::string describe, int est_cycles) {
  PlanNode node;
  node.id = next_id_++;
  node.kind = kind;
  node.label = std::move(label);
  node.describe = std::move(describe);
  node.est_cycles = est_cycles;
  nodes.push_back(std::move(node));
  return nodes.back();
}

PlanNode* PhysicalPlan::FindById(int id) {
  for (PlanNode& n : nodes) {
    if (n.id == id) return &n;
  }
  return nullptr;
}

const PlanNode* PhysicalPlan::FindById(int id) const {
  for (const PlanNode& n : nodes) {
    if (n.id == id) return &n;
  }
  return nullptr;
}

int PhysicalPlan::EstimatedCycles() const {
  int total = 0;
  for (const PlanNode& n : nodes) total += n.est_cycles;
  return total;
}

uint64_t PhysicalPlan::EstimatedBytes() const {
  uint64_t total = 0;
  for (const PlanNode& n : nodes) total += n.est_bytes;
  return total;
}

namespace {

void AppendAttrList(const AttrList& attrs, const char* name,
                    std::ostringstream* os) {
  if (attrs.empty()) return;
  *os << "       " << name << ": ";
  for (size_t i = 0; i < attrs.size(); ++i) {
    if (i > 0) *os << "; ";
    *os << attrs[i].first << "=" << attrs[i].second;
  }
  *os << "\n";
}

}  // namespace

std::string PhysicalPlan::ExplainText() const {
  std::ostringstream os;
  os << engine << ": " << EstimatedCycles()
     << " MR cycles (estimated), fingerprint " << FingerprintHash() << "\n";
  if (!passes.empty()) {
    os << "passes:";
    for (const std::string& p : passes) os << " " << p;
    os << "\n";
  }
  if (!fallback_reason.empty()) os << "fallback: " << fallback_reason << "\n";
  for (const std::string& n : notes) os << "note: " << n << "\n";
  for (const PlanNode& n : nodes) {
    os << "  #" << n.id << " " << OpKindName(n.kind) << " [" << n.est_cycles
       << (n.est_cycles == 1 ? " cycle" : " cycles");
    if (n.map_only) os << ", map-only";
    if (n.est_bytes > 0) os << ", ~" << n.est_bytes << " bytes in";
    if (n.est_shuffle_bytes > 0) {
      os << ", shuffle<=" << n.est_shuffle_bytes;
    }
    os << "] " << n.describe << "\n";
    if (!n.inputs.empty()) {
      os << "       inputs:";
      for (int in : n.inputs) os << " #" << in;
      os << "\n";
    }
    AppendAttrList(n.attrs, "attrs", &os);
    AppendAttrList(n.info, "info", &os);
  }
  return os.str();
}

namespace {

void JsonAttrObject(const AttrList& attrs, std::ostringstream* os) {
  *os << "{";
  for (size_t i = 0; i < attrs.size(); ++i) {
    if (i > 0) *os << ",";
    *os << "\"" << JsonEscape(attrs[i].first) << "\":\""
        << JsonEscape(attrs[i].second) << "\"";
  }
  *os << "}";
}

}  // namespace

std::string PhysicalPlan::ExplainJson() const {
  std::ostringstream os;
  os << "{\"engine\":\"" << JsonEscape(engine) << "\",";
  os << "\"fingerprint\":\"" << FingerprintHash() << "\",";
  os << "\"est_cycles\":" << EstimatedCycles() << ",";
  os << "\"est_bytes\":" << EstimatedBytes() << ",";
  os << "\"fallback\":\"" << JsonEscape(fallback_reason) << "\",";
  os << "\"passes\":[";
  for (size_t i = 0; i < passes.size(); ++i) {
    if (i > 0) os << ",";
    os << "\"" << JsonEscape(passes[i]) << "\"";
  }
  os << "],\"notes\":[";
  for (size_t i = 0; i < notes.size(); ++i) {
    if (i > 0) os << ",";
    os << "\"" << JsonEscape(notes[i]) << "\"";
  }
  os << "],\"nodes\":[";
  for (size_t i = 0; i < nodes.size(); ++i) {
    const PlanNode& n = nodes[i];
    if (i > 0) os << ",";
    os << "{\"id\":" << n.id << ",\"kind\":\"" << OpKindName(n.kind)
       << "\",\"label\":\"" << JsonEscape(n.label) << "\",\"describe\":\""
       << JsonEscape(n.describe) << "\",\"est_cycles\":" << n.est_cycles
       << ",\"est_bytes\":" << n.est_bytes
       << ",\"est_shuffle_bytes\":" << n.est_shuffle_bytes
       << ",\"map_only\":" << (n.map_only ? "true" : "false")
       << ",\"inputs\":[";
    for (size_t j = 0; j < n.inputs.size(); ++j) {
      if (j > 0) os << ",";
      os << n.inputs[j];
    }
    os << "],\"attrs\":";
    JsonAttrObject(n.attrs, &os);
    os << ",\"info\":";
    JsonAttrObject(n.info, &os);
    os << "}";
  }
  os << "]}";
  return os.str();
}

std::string PhysicalPlan::Fingerprint() const {
  std::ostringstream os;
  os << "engine=" << engine << "\n";
  for (const PlanNode& n : nodes) {
    os << "node kind=" << OpKindName(n.kind) << " label=" << n.label
       << " cycles=" << n.est_cycles << " attrs=[";
    for (size_t i = 0; i < n.attrs.size(); ++i) {
      if (i > 0) os << ",";
      os << n.attrs[i].first << "=" << n.attrs[i].second;
    }
    os << "] inputs=[";
    for (size_t i = 0; i < n.inputs.size(); ++i) {
      if (i > 0) os << ",";
      os << n.inputs[i];
    }
    os << "]\n";
  }
  return os.str();
}

std::string PhysicalPlan::FingerprintHash() const {
  return Fnv1aHex(Fingerprint());
}

const std::string* FindEntry(const AttrList& list, const std::string& key) {
  for (const auto& [k, v] : list) {
    if (k == key) return &v;
  }
  return nullptr;
}

std::string Fnv1aHex(const std::string& data) {
  uint64_t h = 14695981039346656037ULL;
  for (unsigned char c : data) {
    h ^= c;
    h *= 1099511628211ULL;
  }
  static const char* kHex = "0123456789abcdef";
  std::string out(16, '0');
  for (int i = 15; i >= 0; --i) {
    out[i] = kHex[h & 0xF];
    h >>= 4;
  }
  return out;
}

std::string JsonEscape(const std::string& s) {
  std::string out;
  out.reserve(s.size() + 8);
  for (char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          static const char* kHex = "0123456789abcdef";
          out += "\\u00";
          out += kHex[(c >> 4) & 0xF];
          out += kHex[c & 0xF];
        } else {
          out += c;
        }
    }
  }
  return out;
}

}  // namespace rapida::plan

#include "src/soir/printer.h"

#include <map>

#include "src/support/check.h"

namespace noctua::soir {
namespace {

std::string PrintRelPath(const Schema& schema, const std::vector<RelStep>& path) {
  std::string out;
  for (const RelStep& s : path) {
    const RelationDef& rel = schema.relation(s.relation);
    out += (s.forward ? rel.name + "+" : rel.reverse_name + "-") + ".";
  }
  return out;
}

}  // namespace

std::string PrintExpr(const Schema& schema, const Expr& e) {
  auto p = [&](size_t i) { return PrintExpr(schema, *e.child(i)); };
  switch (e.kind) {
    case ExprKind::kArg:
      return e.str;
    case ExprKind::kBoolLit:
      return e.int_val ? "true" : "false";
    case ExprKind::kIntLit:
      return std::to_string(e.int_val);
    case ExprKind::kStrLit:
      return "\"" + e.str + "\"";
    case ExprKind::kBoundObj:
      return "it";
    case ExprKind::kAnd:
      return "(" + p(0) + " and " + p(1) + ")";
    case ExprKind::kOr:
      return "(" + p(0) + " or " + p(1) + ")";
    case ExprKind::kNot:
      return "not(" + p(0) + ")";
    case ExprKind::kAdd:
      return "(" + p(0) + " + " + p(1) + ")";
    case ExprKind::kSub:
      return "(" + p(0) + " - " + p(1) + ")";
    case ExprKind::kMul:
      return "(" + p(0) + " * " + p(1) + ")";
    case ExprKind::kNegate:
      return "-(" + p(0) + ")";
    case ExprKind::kCmp:
      return "(" + p(0) + " " + CmpOpName(e.cmp_op) + " " + p(1) + ")";
    case ExprKind::kConcat:
      return "concat(" + p(0) + ", " + p(1) + ")";
    case ExprKind::kGetField:
      return p(0) + "." + e.str;
    case ExprKind::kSetField:
      return "setf(" + e.str + ", " + p(1) + ", " + p(0) + ")";
    case ExprKind::kNewObj: {
      const ModelDef& m = schema.model(e.type.model_id);
      std::string out = "new " + m.name() + "{" + m.pk_name() + ": " + p(0);
      for (size_t i = 1; i < e.children.size(); ++i) {
        out += ", " + m.field(static_cast<int>(i) - 1).name + ": " + p(i);
      }
      return out + "}";
    }
    case ExprKind::kSingleton:
      return "singleton(" + p(0) + ")";
    case ExprKind::kDeref:
      return "deref<" + schema.model(e.type.model_id).name() + ">(" + p(0) + ")";
    case ExprKind::kAny:
      return "any(" + p(0) + ")";
    case ExprKind::kRefOf:
      return "ref(" + p(0) + ")";
    case ExprKind::kAll:
      return "all<" + schema.model(e.type.model_id).name() + ">";
    case ExprKind::kFilter:
      return "filter(" + PrintRelPath(schema, e.rel_path) + e.str + " " + CmpOpName(e.cmp_op) +
             " " + p(1) + ", " + p(0) + ")";
    case ExprKind::kFollow:
      return "follow(" + PrintRelPath(schema, e.rel_path) + ", " + p(0) + ")";
    case ExprKind::kOrderBy:
      return "orderby(" + e.str + (e.int_val ? " asc" : " desc") + ", " + p(0) + ")";
    case ExprKind::kReverse:
      return "reverse(" + p(0) + ")";
    case ExprKind::kFirst:
      return "first(" + p(0) + ")";
    case ExprKind::kLast:
      return "last(" + p(0) + ")";
    case ExprKind::kAggregate:
      return std::string(AggOpName(e.agg_op)) + "(" + (e.str.empty() ? "" : e.str + ", ") +
             p(0) + ")";
    case ExprKind::kExists:
      return "exists(" + p(0) + ")";
    case ExprKind::kMapSet:
      return "mapset(" + e.str + " := " + p(1) + ", " + p(0) + ")";
  }
  NOCTUA_UNREACHABLE("bad expr kind");
}

std::string PrintCommand(const Schema& schema, const Command& c) {
  switch (c.kind) {
    case CommandKind::kGuard:
      return "guard(" + PrintExpr(schema, *c.a) + ")";
    case CommandKind::kUpdate:
      return "update(" + PrintExpr(schema, *c.a) + ")";
    case CommandKind::kDelete:
      return "delete(" + PrintExpr(schema, *c.a) + ")";
    case CommandKind::kLink:
      return "link<" + schema.relation(c.relation).name + ">(" + PrintExpr(schema, *c.a) +
             ", " + PrintExpr(schema, *c.b) + ")";
    case CommandKind::kDelink:
      return "delink<" + schema.relation(c.relation).name + ">(" + PrintExpr(schema, *c.a) +
             ", " + PrintExpr(schema, *c.b) + ")";
    case CommandKind::kRLink:
      return "rlink<" + schema.relation(c.relation).name + ">(" + PrintExpr(schema, *c.a) +
             ", " + PrintExpr(schema, *c.b) + ")";
    case CommandKind::kClearLinks:
      return "clearlinks<" + schema.relation(c.relation).name + ">(" +
             PrintExpr(schema, *c.a) + (c.forward ? ", forward)" : ", backward)");
  }
  NOCTUA_UNREACHABLE("bad command kind");
}

// --- Canonical fingerprints ---------------------------------------------------------------

int CanonicalizationCtx::ModelId(int m) {
  if (model_map_.empty()) {
    model_map_.assign(schema_.num_models(), -1);
  }
  NOCTUA_CHECK(m >= 0 && static_cast<size_t>(m) < model_map_.size());
  int& slot = model_map_[static_cast<size_t>(m)];
  if (slot < 0) {
    slot = static_cast<int>(models_.size());
    models_.push_back(m);
  }
  return slot;
}

int CanonicalizationCtx::RelationId(int r) {
  if (relation_map_.empty()) {
    relation_map_.assign(schema_.num_relations(), -1);
  }
  NOCTUA_CHECK(r >= 0 && static_cast<size_t>(r) < relation_map_.size());
  int& slot = relation_map_[static_cast<size_t>(r)];
  if (slot >= 0) {
    return slot;
  }
  int id = static_cast<int>(relations_.size());
  slot = id;
  relations_.push_back(r);
  // Endpoints are part of the relation's identity (referential-integrity axioms mention
  // both sides), so assign them now even if the path text never names them.
  const RelationDef& rel = schema_.relation(r);
  ModelId(rel.from_model);
  ModelId(rel.to_model);
  return id;
}

std::string CanonicalizationCtx::SchemaSignature() const {
  std::string out;
  for (size_t k = 0; k < models_.size(); ++k) {
    const ModelDef& md = schema_.model(models_[k]);
    out += "m" + std::to_string(k) + "[";
    for (const FieldDef& fd : md.fields()) {
      switch (fd.type) {
        case FieldType::kBool:
          out += 'b';
          break;
        case FieldType::kString:
          out += 's';
          break;
        default:  // Int / Float / Datetime: all integer-sorted and order-comparable
          out += 'i';
          break;
      }
      if (fd.unique) {
        out += '!';
      }
    }
    out += "];";
  }
  for (size_t k = 0; k < relations_.size(); ++k) {
    const RelationDef& rel = schema_.relation(relations_[k]);
    out += "r" + std::to_string(k) + "(" +
           std::to_string(static_cast<int>(rel.kind)) + "," +
           std::to_string(static_cast<int>(rel.on_delete)) + "," +
           std::to_string(model_map_[static_cast<size_t>(rel.from_model)]) + "," +
           std::to_string(model_map_[static_cast<size_t>(rel.to_model)]) + ");";
  }
  return out;
}

namespace {

// The printer below renders into a raw string in which every canonical id is a hole:
// kMark followed by the four bytes of the recording call's index. A kMark byte that
// belongs to the path itself (inside a string literal or an unknown field name) is
// escaped as kMark followed by kLiteralMark's four bytes. CanonicalPathTemplate splits
// the raw string into literal text and holes.
constexpr char kMark = '\x01';
constexpr uint32_t kLiteralMark = 0xffffffffu;

std::string MarkerFor(uint32_t index) {
  std::string out(5, kMark);
  for (int b = 0; b < 4; ++b) {
    out[1 + b] = static_cast<char>((index >> (8 * b)) & 0xff);
  }
  return out;
}

// Path-controlled text, with kMark bytes escaped.
std::string Literal(const std::string& s) {
  if (s.find(kMark) == std::string::npos) {
    return s;
  }
  std::string out;
  for (char ch : s) {
    if (ch == kMark) {
      out += MarkerFor(kLiteralMark);
    } else {
      out += ch;
    }
  }
  return out;
}

// Per-path canonical printing state: the ModelId/RelationId calls made so far (each
// returns a hole for its own result) and argument names densely renumbered in
// declaration order (the encoder pre-registers them in exactly that order).
struct CanonPathCtx {
  std::vector<CanonicalTemplate::Call> calls;
  std::map<std::string, int> arg_ids;

  std::string Model(int m) { return Record(m, false); }
  std::string Relation(int r) { return Record(r, true); }

  int ArgId(const std::string& name) {
    auto it = arg_ids.find(name);
    if (it != arg_ids.end()) {
      return it->second;
    }
    int id = static_cast<int>(arg_ids.size());
    arg_ids[name] = id;
    return id;
  }

 private:
  std::string Record(int id, bool relation) {
    calls.push_back(CanonicalTemplate::Call{id, relation});
    return MarkerFor(static_cast<uint32_t>(calls.size() - 1));
  }
};

std::string CanonType(const Type& t, CanonPathCtx& c) {
  switch (t.kind) {
    case Type::Kind::kBool:
      return "b";
    case Type::Kind::kString:
      return "s";
    case Type::Kind::kObj:
      return "O" + c.Model(t.model_id);
    case Type::Kind::kSet:
      return "S" + c.Model(t.model_id);
    case Type::Kind::kRef:
      return "R" + c.Model(t.model_id);
    default:  // Int / Float / Datetime share the integer sort
      return "i";
  }
}

// Mirrors the encoder's FieldTupleIndex: the pk renders as "pk", data fields as their
// tuple slot.
std::string CanonField(const Schema& schema, int model, const std::string& field) {
  const ModelDef& md = schema.model(model);
  if (md.IsPk(field) || field == "id") {
    return "pk";
  }
  int idx = md.FieldIndex(field);
  if (idx < 0) {
    return "?" + Literal(field);  // unknown fields keep their name: never silently collide
  }
  return std::to_string(idx + 1);
}

std::string CanonRelPath(const std::vector<RelStep>& path, CanonPathCtx& c) {
  std::string out;
  for (const RelStep& s : path) {
    out += "r" + c.Relation(s.relation) + (s.forward ? "+" : "-") + ".";
  }
  return out;
}

// The model a filter's terminal field lives on: the base set's model, advanced through
// the relation path.
int RelPathTarget(const Schema& schema, int base_model, const std::vector<RelStep>& path) {
  int m = base_model;
  for (const RelStep& s : path) {
    const RelationDef& rel = schema.relation(s.relation);
    m = s.forward ? rel.to_model : rel.from_model;
  }
  return m;
}

std::string CanonExpr(const Schema& schema, const Expr& e, CanonPathCtx& c) {
  auto p = [&](size_t i) { return CanonExpr(schema, *e.child(i), c); };
  switch (e.kind) {
    case ExprKind::kArg:
      return "a" + std::to_string(c.ArgId(e.str));
    case ExprKind::kBoolLit:
      return e.int_val ? "true" : "false";
    case ExprKind::kIntLit:
      return std::to_string(e.int_val);
    case ExprKind::kStrLit:
      return "\"" + Literal(e.str) + "\"";
    case ExprKind::kBoundObj:
      return "it";
    case ExprKind::kAnd:
      return "(" + p(0) + " and " + p(1) + ")";
    case ExprKind::kOr:
      return "(" + p(0) + " or " + p(1) + ")";
    case ExprKind::kNot:
      return "not(" + p(0) + ")";
    case ExprKind::kAdd:
      return "(" + p(0) + " + " + p(1) + ")";
    case ExprKind::kSub:
      return "(" + p(0) + " - " + p(1) + ")";
    case ExprKind::kMul:
      return "(" + p(0) + " * " + p(1) + ")";
    case ExprKind::kNegate:
      return "-(" + p(0) + ")";
    case ExprKind::kCmp: {
      // The comparison's sort class decides which operators encode (only equality exists
      // for bool/string/ref), so it is part of the fingerprint.
      return "(" + p(0) + " " + CmpOpName(e.cmp_op) + "/" + CanonType(e.child(0)->type, c) +
             " " + p(1) + ")";
    }
    case ExprKind::kConcat:
      return "concat(" + p(0) + ", " + p(1) + ")";
    case ExprKind::kGetField:
      return p(0) + ".f" + CanonField(schema, e.child(0)->type.model_id, e.str);
    case ExprKind::kSetField:
      return "setf(f" + CanonField(schema, e.child(0)->type.model_id, e.str) + ", " + p(1) +
             ", " + p(0) + ")";
    case ExprKind::kNewObj: {
      std::string out = "new m" + c.Model(e.type.model_id) + "{" + p(0);
      for (size_t i = 1; i < e.children.size(); ++i) {
        out += ", " + p(i);
      }
      return out + "}";
    }
    case ExprKind::kSingleton:
      return "singleton(" + p(0) + ")";
    case ExprKind::kDeref:
      return "deref<m" + c.Model(e.type.model_id) + ">(" + p(0) + ")";
    case ExprKind::kAny:
      return "any(" + p(0) + ")";
    case ExprKind::kRefOf:
      return "ref(" + p(0) + ")";
    case ExprKind::kAll:
      return "all<m" + c.Model(e.type.model_id) + ">";
    case ExprKind::kFilter: {
      int target = RelPathTarget(schema, e.child(0)->type.model_id, e.rel_path);
      return "filter(" + CanonRelPath(e.rel_path, c) + "f" +
             CanonField(schema, target, e.str) + " " + CmpOpName(e.cmp_op) + "/" +
             CanonType(e.child(1)->type, c) + " " + p(1) + ", " + p(0) + ")";
    }
    case ExprKind::kFollow:
      return "follow(" + CanonRelPath(e.rel_path, c) + ", " + p(0) + ")";
    case ExprKind::kOrderBy:
      return "orderby(f" + CanonField(schema, e.child(0)->type.model_id, e.str) +
             (e.int_val ? " asc" : " desc") + ", " + p(0) + ")";
    case ExprKind::kReverse:
      return "reverse(" + p(0) + ")";
    case ExprKind::kFirst:
      return "first(" + p(0) + ")";
    case ExprKind::kLast:
      return "last(" + p(0) + ")";
    case ExprKind::kAggregate:
      return std::string(AggOpName(e.agg_op)) + "(" +
             (e.str.empty() ? ""
                            : "f" + CanonField(schema, e.child(0)->type.model_id, e.str) + ", ") +
             p(0) + ")";
    case ExprKind::kExists:
      return "exists(" + p(0) + ")";
    case ExprKind::kMapSet:
      return "mapset(f" + CanonField(schema, e.child(0)->type.model_id, e.str) + " := " + p(1) +
             ", " + p(0) + ")";
  }
  NOCTUA_UNREACHABLE("bad expr kind");
}

std::string CanonCommand(const Schema& schema, const Command& cmd, CanonPathCtx& c) {
  switch (cmd.kind) {
    case CommandKind::kGuard:
      return "guard(" + CanonExpr(schema, *cmd.a, c) + ")";
    case CommandKind::kUpdate:
      return "update(" + CanonExpr(schema, *cmd.a, c) + ")";
    case CommandKind::kDelete: {
      // The encoder rewrites every relation incident to the deleted model, so those
      // relations (and which side the model is on) are part of the query even though the
      // path text never names them.
      int m = cmd.a->type.model_id;
      std::string out = "delete(" + CanonExpr(schema, *cmd.a, c) + ")[";
      for (size_t r = 0; r < schema.num_relations(); ++r) {
        const RelationDef& rel = schema.relation(static_cast<int>(r));
        if (rel.from_model != m && rel.to_model != m) {
          continue;
        }
        out += "r" + c.Relation(static_cast<int>(r));
        if (rel.from_model == m) {
          out += "f";
        }
        if (rel.to_model == m) {
          out += "t";
        }
        out += ",";
      }
      return out + "]";
    }
    case CommandKind::kLink:
      return "link<r" + c.Relation(cmd.relation) + ">(" + CanonExpr(schema, *cmd.a, c) +
             ", " + CanonExpr(schema, *cmd.b, c) + ")";
    case CommandKind::kDelink:
      return "delink<r" + c.Relation(cmd.relation) + ">(" + CanonExpr(schema, *cmd.a, c) +
             ", " + CanonExpr(schema, *cmd.b, c) + ")";
    case CommandKind::kRLink:
      return "rlink<r" + c.Relation(cmd.relation) + ">(" + CanonExpr(schema, *cmd.a, c) +
             ", " + CanonExpr(schema, *cmd.b, c) + ")";
    case CommandKind::kClearLinks:
      return "clearlinks<r" + c.Relation(cmd.relation) + ">(" + CanonExpr(schema, *cmd.a, c) +
             (cmd.forward ? ", forward)" : ", backward)");
  }
  NOCTUA_UNREACHABLE("bad command kind");
}

}  // namespace

CanonicalTemplate CanonicalPathTemplate(const Schema& schema, const CodePath& path) {
  CanonPathCtx c;
  std::string raw = "args(";
  for (const ArgDef& a : path.args) {
    raw += "a" + std::to_string(c.ArgId(a.name)) + ":" + CanonType(a.type, c);
    if (a.unique_id) {
      raw += "!";
    }
    raw += ";";
  }
  raw += ")";
  for (const Command& cmd : path.commands) {
    raw += " " + CanonCommand(schema, cmd, c) + ";";
  }

  CanonicalTemplate t;
  t.calls_ = std::move(c.calls);
  t.text_.reserve(raw.size());
  for (size_t i = 0; i < raw.size(); ++i) {
    if (raw[i] != kMark) {
      t.text_ += raw[i];
      continue;
    }
    NOCTUA_CHECK(i + 4 < raw.size());
    uint32_t index = 0;
    for (int b = 3; b >= 0; --b) {
      index = (index << 8) | static_cast<unsigned char>(raw[i + 1 + static_cast<size_t>(b)]);
    }
    i += 4;
    if (index == kLiteralMark) {
      t.text_ += kMark;
    } else {
      NOCTUA_CHECK(index < t.calls_.size());
      t.holes_.push_back(CanonicalTemplate::Hole{t.text_.size(), index});
    }
  }
  return t;
}

void CanonicalTemplate::Render(CanonicalizationCtx* ctx, std::string* out) const {
  // Replay in call order, not text order: the printer's `+` chains evaluate their
  // operands in an unspecified order, and first-use numbering must follow the calls.
  constexpr size_t kInline = 64;
  int inline_ids[kInline];
  std::vector<int> heap_ids;
  int* ids = inline_ids;
  if (calls_.size() > kInline) {
    heap_ids.resize(calls_.size());
    ids = heap_ids.data();
  }
  for (size_t k = 0; k < calls_.size(); ++k) {
    ids[k] = calls_[k].relation ? ctx->RelationId(calls_[k].id) : ctx->ModelId(calls_[k].id);
  }
  size_t pos = 0;
  for (const Hole& h : holes_) {
    out->append(text_, pos, h.offset - pos);
    *out += std::to_string(ids[h.call]);
    pos = h.offset;
  }
  out->append(text_, pos, std::string::npos);
}

std::string CanonicalPath(const Schema& schema, const CodePath& path,
                          CanonicalizationCtx* ctx) {
  std::string out;
  CanonicalPathTemplate(schema, path).Render(ctx, &out);
  return out;
}

std::string PrintCodePath(const Schema& schema, const CodePath& path) {
  std::string out = "path " + path.op_name + " (view " + path.view_name + ")\n";
  out += "  args:";
  for (const ArgDef& a : path.args) {
    out += " " + a.name + ":" + a.type.ToString(&schema);
    if (a.unique_id) {
      out += "!";
    }
  }
  out += "\n";
  for (const Command& c : path.commands) {
    out += "  " + PrintCommand(schema, c) + "\n";
  }
  return out;
}

}  // namespace noctua::soir

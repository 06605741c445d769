#include "io/serialize.h"

#include <cstring>
#include <utility>

#include "io/bytes.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace dmt::io {

namespace {

// Section ids. Each artifact starts its fixed sections at 1; Dataset
// feature columns occupy kColumnBase + attribute index.
constexpr uint32_t kMeta = 1;
constexpr uint32_t kOffsets = 2;
constexpr uint32_t kItems = 3;
constexpr uint32_t kSupports = 4;
constexpr uint32_t kLabels = 2;
constexpr uint32_t kNodes = 2;
constexpr uint32_t kNames = 3;
constexpr uint32_t kRules = 1;
constexpr uint32_t kCenters = 2;
constexpr uint32_t kAssignments = 3;
constexpr uint32_t kQuantItems = 2;
constexpr uint32_t kQuantRules = 3;
constexpr uint32_t kColumnBase = 16;

core::Status WriteContainer(const ContainerWriter& writer,
                            const std::string& path) {
  obs::Span span("io/serialize/write");
  DMT_RETURN_NOT_OK(writer.WriteToFile(path));
  span.AddArg("bytes", writer.FileSize());
  obs::Counter("io/bytes_written").Add(writer.FileSize());
  return core::Status::OK();
}

core::Result<ContainerReader> MapContainer(const std::string& path,
                                           ArtifactType type) {
  // ContainerReader::Map owns the "io/container/map" span and the
  // io/bytes_mapped counter, so direct Map callers (dmt_pack) count too.
  return ContainerReader::Map(path, type);
}

}  // namespace

// ---- TransactionDatabase ------------------------------------------------

core::Status WriteTransactionDatabase(const core::TransactionDatabase& db,
                                      const std::string& path) {
  ContainerWriter writer(ArtifactType::kTransactionDatabase);
  ByteWriter meta;
  meta.PutU64(db.size());
  meta.PutU64(db.total_items());
  meta.PutU64(db.item_universe());
  writer.AddSection(kMeta, meta.Release());
  writer.AddArraySection<uint64_t>(kOffsets, db.offsets());
  writer.AddArraySection<core::ItemId>(kItems, db.items());
  return WriteContainer(writer, path);
}

namespace {

/// Shared by the owning loader and the mmap view: checks META against the
/// raw sections so both paths reject the same malformed inputs.
core::Status CheckTransactionSections(const ContainerReader& reader,
                                      std::span<const uint64_t> offsets,
                                      std::span<const core::ItemId> items,
                                      uint64_t* item_universe) {
  DMT_ASSIGN_OR_RETURN(std::span<const std::byte> meta_bytes,
                       reader.Section(kMeta));
  ByteReader meta(meta_bytes, reader.name() + ": META");
  DMT_ASSIGN_OR_RETURN(uint64_t num_transactions, meta.ReadU64());
  DMT_ASSIGN_OR_RETURN(uint64_t total_items, meta.ReadU64());
  DMT_ASSIGN_OR_RETURN(*item_universe, meta.ReadU64());
  DMT_RETURN_NOT_OK(meta.ExpectEnd());
  if (offsets.size() != num_transactions + 1) {
    return core::Status::Corruption(
        reader.name() + ": OFFSETS holds " + std::to_string(offsets.size()) +
        " entries, META declares " + std::to_string(num_transactions) +
        " transactions");
  }
  if (items.size() != total_items) {
    return core::Status::Corruption(
        reader.name() + ": ITEMS holds " + std::to_string(items.size()) +
        " entries, META declares " + std::to_string(total_items));
  }
  return core::Status::OK();
}

}  // namespace

core::Result<core::TransactionDatabase> LoadTransactionDatabase(
    const std::string& path) {
  obs::Span span("io/serialize/load/transactions");
  DMT_ASSIGN_OR_RETURN(
      ContainerReader reader,
      MapContainer(path, ArtifactType::kTransactionDatabase));
  DMT_ASSIGN_OR_RETURN(std::span<const uint64_t> offsets,
                       reader.SectionAs<uint64_t>(kOffsets));
  DMT_ASSIGN_OR_RETURN(std::span<const core::ItemId> items,
                       reader.SectionAs<core::ItemId>(kItems));
  uint64_t declared_universe = 0;
  DMT_RETURN_NOT_OK(
      CheckTransactionSections(reader, offsets, items, &declared_universe));
  DMT_ASSIGN_OR_RETURN(
      core::TransactionDatabase db,
      core::TransactionDatabase::FromColumns(
          std::vector<uint64_t>(offsets.begin(), offsets.end()),
          std::vector<core::ItemId>(items.begin(), items.end())));
  if (db.item_universe() != declared_universe) {
    return core::Status::Corruption(
        path + ": META item universe " + std::to_string(declared_universe) +
        " does not match items (" + std::to_string(db.item_universe()) + ")");
  }
  span.AddArg("transactions", db.size());
  return db;
}

core::Result<MappedTransactionDatabase> MappedTransactionDatabase::Map(
    const std::string& path) {
  obs::Span span("io/serialize/load/transactions_mmap");
  MappedTransactionDatabase view;
  DMT_ASSIGN_OR_RETURN(
      view.reader_,
      MapContainer(path, ArtifactType::kTransactionDatabase));
  DMT_ASSIGN_OR_RETURN(view.offsets_,
                       view.reader_.SectionAs<uint64_t>(kOffsets));
  DMT_ASSIGN_OR_RETURN(view.items_,
                       view.reader_.SectionAs<core::ItemId>(kItems));
  uint64_t declared_universe = 0;
  DMT_RETURN_NOT_OK(CheckTransactionSections(
      view.reader_, view.offsets_, view.items_, &declared_universe));
  // Structural validation in place — the same invariants FromColumns
  // enforces, without copying the arrays.
  const auto& offsets = view.offsets_;
  const auto& items = view.items_;
  if (offsets.empty() || offsets.front() != 0 ||
      offsets.back() != items.size()) {
    return core::Status::Corruption(path + ": malformed offset array");
  }
  size_t universe = 0;
  for (size_t t = 0; t + 1 < offsets.size(); ++t) {
    if (offsets[t] > offsets[t + 1]) {
      return core::Status::Corruption(
          path + ": transaction offsets decrease at entry " +
          std::to_string(t + 1));
    }
    for (uint64_t i = offsets[t] + 1; i < offsets[t + 1]; ++i) {
      if (items[i - 1] >= items[i]) {
        return core::Status::Corruption(
            path + ": transaction " + std::to_string(t) +
            " is not strictly increasing");
      }
    }
    if (offsets[t] < offsets[t + 1]) {
      universe = std::max(
          universe, static_cast<size_t>(items[offsets[t + 1] - 1]) + 1);
    }
  }
  if (universe != declared_universe) {
    return core::Status::Corruption(
        path + ": META item universe " + std::to_string(declared_universe) +
        " does not match items (" + std::to_string(universe) + ")");
  }
  view.item_universe_ = universe;
  span.AddArg("transactions", view.size());
  return view;
}

core::TransactionDatabase MappedTransactionDatabase::ToOwned() const {
  // Map() already validated the invariants, so FromColumns cannot fail.
  auto db = core::TransactionDatabase::FromColumns(
      std::vector<uint64_t>(offsets_.begin(), offsets_.end()),
      std::vector<core::ItemId>(items_.begin(), items_.end()));
  return std::move(db).value();
}

// ---- Dataset ------------------------------------------------------------

core::Status WriteDataset(const core::Dataset& dataset,
                          const std::string& path) {
  ContainerWriter writer(ArtifactType::kDataset);
  ByteWriter schema;
  schema.PutU64(dataset.num_rows());
  schema.PutU32(static_cast<uint32_t>(dataset.num_attributes()));
  schema.PutU32(static_cast<uint32_t>(dataset.num_classes()));
  for (const std::string& name : dataset.class_names()) {
    schema.PutString(name);
  }
  for (size_t a = 0; a < dataset.num_attributes(); ++a) {
    const core::AttributeInfo& info = dataset.attribute(a);
    schema.PutString(info.name);
    schema.PutU8(info.type == core::AttributeType::kNumeric ? 0 : 1);
    if (info.type == core::AttributeType::kCategorical) {
      schema.PutU32(static_cast<uint32_t>(info.categories.size()));
      for (const std::string& category : info.categories) {
        schema.PutString(category);
      }
    }
  }
  writer.AddSection(kMeta, schema.Release());
  writer.AddArraySection<uint32_t>(kLabels, dataset.labels());
  for (size_t a = 0; a < dataset.num_attributes(); ++a) {
    const uint32_t id = kColumnBase + static_cast<uint32_t>(a);
    if (dataset.attribute(a).type == core::AttributeType::kNumeric) {
      writer.AddArraySection<double>(id, dataset.NumericColumn(a));
    } else {
      writer.AddArraySection<uint32_t>(id, dataset.CategoricalColumn(a));
    }
  }
  return WriteContainer(writer, path);
}

core::Result<core::Dataset> LoadDataset(const std::string& path) {
  obs::Span span("io/serialize/load/dataset");
  DMT_ASSIGN_OR_RETURN(ContainerReader reader,
                       MapContainer(path, ArtifactType::kDataset));
  DMT_ASSIGN_OR_RETURN(std::span<const std::byte> schema_bytes,
                       reader.Section(kMeta));
  ByteReader schema(schema_bytes, path + ": SCHEMA");
  DMT_ASSIGN_OR_RETURN(uint64_t num_rows, schema.ReadU64());
  DMT_ASSIGN_OR_RETURN(uint32_t num_attributes, schema.ReadU32());
  DMT_ASSIGN_OR_RETURN(uint32_t num_classes, schema.ReadU32());
  std::vector<std::string> class_names(num_classes);
  for (uint32_t c = 0; c < num_classes; ++c) {
    DMT_ASSIGN_OR_RETURN(class_names[c], schema.ReadString());
  }

  core::DatasetBuilder builder;
  for (uint32_t a = 0; a < num_attributes; ++a) {
    DMT_ASSIGN_OR_RETURN(std::string name, schema.ReadString());
    DMT_ASSIGN_OR_RETURN(uint8_t type_tag, schema.ReadU8());
    if (type_tag > 1) {
      return core::Status::Corruption(path + ": attribute '" + name +
                                      "' has unknown type tag " +
                                      std::to_string(type_tag));
    }
    const uint32_t column_id = kColumnBase + a;
    if (type_tag == 0) {
      DMT_ASSIGN_OR_RETURN(std::span<const double> column,
                           reader.SectionAs<double>(column_id));
      if (column.size() != num_rows) {
        return core::Status::Corruption(
            path + ": numeric column '" + name + "' holds " +
            std::to_string(column.size()) + " values for " +
            std::to_string(num_rows) + " rows");
      }
      builder.AddNumericColumn(
          std::move(name), std::vector<double>(column.begin(), column.end()));
    } else {
      DMT_ASSIGN_OR_RETURN(uint32_t num_categories, schema.ReadU32());
      std::vector<std::string> categories(num_categories);
      for (uint32_t c = 0; c < num_categories; ++c) {
        DMT_ASSIGN_OR_RETURN(categories[c], schema.ReadString());
      }
      DMT_ASSIGN_OR_RETURN(std::span<const uint32_t> column,
                           reader.SectionAs<uint32_t>(column_id));
      if (column.size() != num_rows) {
        return core::Status::Corruption(
            path + ": categorical column '" + name + "' holds " +
            std::to_string(column.size()) + " values for " +
            std::to_string(num_rows) + " rows");
      }
      builder.AddCategoricalColumn(
          std::move(name),
          std::vector<uint32_t>(column.begin(), column.end()),
          std::move(categories));
    }
  }
  DMT_RETURN_NOT_OK(schema.ExpectEnd());

  DMT_ASSIGN_OR_RETURN(std::span<const uint32_t> labels,
                       reader.SectionAs<uint32_t>(kLabels));
  if (labels.size() != num_rows) {
    return core::Status::Corruption(
        path + ": LABELS holds " + std::to_string(labels.size()) +
        " entries for " + std::to_string(num_rows) + " rows");
  }
  builder.SetLabels(std::vector<uint32_t>(labels.begin(), labels.end()),
                    std::move(class_names));
  auto built = builder.Build();
  if (!built.ok()) {
    // Shape/range failures out of a checksummed file are corruption, not
    // caller error — rewrap so the caller sees one code for bad files.
    return core::Status::Corruption(path + ": " +
                                    built.status().message());
  }
  span.AddArg("rows", num_rows);
  return std::move(built).value();
}

// ---- MiningResult -------------------------------------------------------

core::Status WriteMiningResult(const assoc::MiningResult& result,
                               const std::string& path) {
  ContainerWriter writer(ArtifactType::kMiningResult);
  std::vector<uint64_t> offsets;
  offsets.reserve(result.itemsets.size() + 1);
  std::vector<core::ItemId> items;
  std::vector<uint32_t> supports;
  supports.reserve(result.itemsets.size());
  offsets.push_back(0);
  for (const assoc::FrequentItemset& itemset : result.itemsets) {
    items.insert(items.end(), itemset.items.begin(), itemset.items.end());
    offsets.push_back(items.size());
    supports.push_back(itemset.support);
  }
  ByteWriter meta;
  meta.PutU64(result.itemsets.size());
  meta.PutU64(items.size());
  meta.PutU64(result.conditional_trees_built);
  meta.PutU64(result.fp_nodes_allocated);
  meta.PutU64(result.tidset_intersections);
  meta.PutU64(result.partitions_mined);
  meta.PutU64(result.bytes_mapped);
  meta.PutU64(result.passes.size());
  for (const assoc::PassStats& pass : result.passes) {
    meta.PutU64(pass.pass);
    meta.PutU64(pass.candidates);
    meta.PutU64(pass.frequent);
  }
  writer.AddSection(kMeta, meta.Release());
  writer.AddArraySection<uint64_t>(kOffsets, std::span(offsets));
  writer.AddArraySection<core::ItemId>(kItems, std::span(items));
  writer.AddArraySection<uint32_t>(kSupports, std::span(supports));
  return WriteContainer(writer, path);
}

core::Result<assoc::MiningResult> LoadMiningResult(const std::string& path) {
  obs::Span span("io/serialize/load/mining_result");
  DMT_ASSIGN_OR_RETURN(ContainerReader reader,
                       MapContainer(path, ArtifactType::kMiningResult));
  DMT_ASSIGN_OR_RETURN(std::span<const std::byte> meta_bytes,
                       reader.Section(kMeta));
  ByteReader meta(meta_bytes, path + ": META");
  DMT_ASSIGN_OR_RETURN(uint64_t num_itemsets, meta.ReadU64());
  DMT_ASSIGN_OR_RETURN(uint64_t total_items, meta.ReadU64());
  assoc::MiningResult result;
  DMT_ASSIGN_OR_RETURN(result.conditional_trees_built, meta.ReadU64());
  DMT_ASSIGN_OR_RETURN(result.fp_nodes_allocated, meta.ReadU64());
  DMT_ASSIGN_OR_RETURN(result.tidset_intersections, meta.ReadU64());
  DMT_ASSIGN_OR_RETURN(result.partitions_mined, meta.ReadU64());
  DMT_ASSIGN_OR_RETURN(result.bytes_mapped, meta.ReadU64());
  DMT_ASSIGN_OR_RETURN(uint64_t num_passes, meta.ReadU64());
  if (num_passes > meta.remaining() / (3 * sizeof(uint64_t))) {
    return core::Status::Corruption(path + ": pass census count " +
                                    std::to_string(num_passes) +
                                    " exceeds the META section");
  }
  result.passes.resize(num_passes);
  for (assoc::PassStats& pass : result.passes) {
    DMT_ASSIGN_OR_RETURN(uint64_t pass_k, meta.ReadU64());
    DMT_ASSIGN_OR_RETURN(uint64_t candidates, meta.ReadU64());
    DMT_ASSIGN_OR_RETURN(uint64_t frequent, meta.ReadU64());
    pass.pass = pass_k;
    pass.candidates = candidates;
    pass.frequent = frequent;
  }
  DMT_RETURN_NOT_OK(meta.ExpectEnd());

  DMT_ASSIGN_OR_RETURN(std::span<const uint64_t> offsets,
                       reader.SectionAs<uint64_t>(kOffsets));
  DMT_ASSIGN_OR_RETURN(std::span<const core::ItemId> items,
                       reader.SectionAs<core::ItemId>(kItems));
  DMT_ASSIGN_OR_RETURN(std::span<const uint32_t> supports,
                       reader.SectionAs<uint32_t>(kSupports));
  if (offsets.size() != num_itemsets + 1 || items.size() != total_items ||
      supports.size() != num_itemsets) {
    return core::Status::Corruption(
        path + ": section sizes disagree with the META counts");
  }
  if (num_itemsets > 0 &&
      (offsets.front() != 0 || offsets.back() != items.size())) {
    return core::Status::Corruption(path + ": malformed itemset offsets");
  }
  result.itemsets.resize(num_itemsets);
  for (uint64_t i = 0; i < num_itemsets; ++i) {
    if (offsets[i] > offsets[i + 1]) {
      return core::Status::Corruption(
          path + ": itemset offsets decrease at entry " + std::to_string(i));
    }
    assoc::FrequentItemset& itemset = result.itemsets[i];
    itemset.items.assign(items.begin() + offsets[i],
                         items.begin() + offsets[i + 1]);
    for (size_t j = 1; j < itemset.items.size(); ++j) {
      if (itemset.items[j - 1] >= itemset.items[j]) {
        return core::Status::Corruption(
            path + ": itemset " + std::to_string(i) + " is not sorted");
      }
    }
    itemset.support = supports[i];
  }
  span.AddArg("itemsets", num_itemsets);
  return result;
}

// ---- Rule sets ----------------------------------------------------------

namespace {

/// Shared rule-stream encoding for plain and quantitative rule sets: a
/// u64 count followed by one record per rule — the two item arrays, the
/// absolute support count, and all five measures (supp, conf, lift,
/// conviction, leverage) as raw IEEE-754 bit patterns.
void AppendRuleStream(const std::vector<assoc::AssociationRule>& rules,
                      ByteWriter* stream) {
  // Size the stream once: a count, then per rule two u64-prefixed item
  // arrays, the u32 support count and five f64 measures.
  size_t size = sizeof(uint64_t);
  for (const assoc::AssociationRule& rule : rules) {
    size += 2 * sizeof(uint64_t) +
            (rule.antecedent.size() + rule.consequent.size()) *
                sizeof(core::ItemId) +
            sizeof(uint32_t) + 5 * sizeof(double);
  }
  stream->Reserve(size);
  stream->PutU64(rules.size());
  for (const assoc::AssociationRule& rule : rules) {
    stream->PutArray<core::ItemId>(rule.antecedent);
    stream->PutArray<core::ItemId>(rule.consequent);
    stream->PutU32(rule.support_count);
    stream->PutF64(rule.support);
    stream->PutF64(rule.confidence);
    stream->PutF64(rule.lift);
    stream->PutF64(rule.conviction);
    stream->PutF64(rule.leverage);
  }
}

core::Result<std::vector<assoc::AssociationRule>> ReadRuleStream(
    ByteReader* stream, const std::string& context) {
  DMT_ASSIGN_OR_RETURN(uint64_t num_rules, stream->ReadU64());
  // Each rule needs at least its two array headers + fixed fields.
  if (num_rules > stream->remaining() / (2 * sizeof(uint64_t))) {
    return core::Status::Corruption(context + ": rule count " +
                                    std::to_string(num_rules) +
                                    " exceeds the section");
  }
  std::vector<assoc::AssociationRule> rules(num_rules);
  for (assoc::AssociationRule& rule : rules) {
    DMT_ASSIGN_OR_RETURN(
        rule.antecedent,
        stream->ReadArray<core::ItemId>(stream->remaining()));
    DMT_ASSIGN_OR_RETURN(
        rule.consequent,
        stream->ReadArray<core::ItemId>(stream->remaining()));
    DMT_ASSIGN_OR_RETURN(rule.support_count, stream->ReadU32());
    DMT_ASSIGN_OR_RETURN(rule.support, stream->ReadF64());
    DMT_ASSIGN_OR_RETURN(rule.confidence, stream->ReadF64());
    DMT_ASSIGN_OR_RETURN(rule.lift, stream->ReadF64());
    DMT_ASSIGN_OR_RETURN(rule.conviction, stream->ReadF64());
    DMT_ASSIGN_OR_RETURN(rule.leverage, stream->ReadF64());
  }
  return rules;
}

}  // namespace

core::Status WriteRuleSet(const std::vector<assoc::AssociationRule>& rules,
                          const std::string& path) {
  ContainerWriter writer(ArtifactType::kRuleSet);
  ByteWriter stream;
  AppendRuleStream(rules, &stream);
  writer.AddSection(kRules, stream.Release());
  return WriteContainer(writer, path);
}

core::Result<std::vector<assoc::AssociationRule>> LoadRuleSet(
    const std::string& path) {
  obs::Span span("io/serialize/load/rule_set");
  DMT_ASSIGN_OR_RETURN(ContainerReader reader,
                       MapContainer(path, ArtifactType::kRuleSet));
  DMT_ASSIGN_OR_RETURN(std::span<const std::byte> payload,
                       reader.Section(kRules));
  ByteReader stream(payload, path + ": RULES");
  DMT_ASSIGN_OR_RETURN(std::vector<assoc::AssociationRule> rules,
                       ReadRuleStream(&stream, path + ": RULES"));
  DMT_RETURN_NOT_OK(stream.ExpectEnd());
  span.AddArg("rules", rules.size());
  return rules;
}

// ---- Quantitative rule sets ---------------------------------------------

core::Status WriteQuantRuleSet(const assoc::QuantRuleSet& rule_set,
                               const std::string& path) {
  ContainerWriter writer(ArtifactType::kQuantRuleSet);
  ByteWriter meta;
  meta.PutF64(rule_set.partial_completeness);
  meta.PutU64(rule_set.itemsets_mined);
  meta.PutU64(rule_set.itemsets_attribute_distinct);
  writer.AddSection(kMeta, meta.Release());

  ByteWriter items;
  items.PutU64(rule_set.items.size());
  for (const assoc::QuantItem& item : rule_set.items) {
    items.PutU32(item.attribute);
    items.PutU8(item.is_categorical ? 1 : 0);
    items.PutU32(item.category);
    items.PutF64(item.lo);
    items.PutF64(item.hi);
    items.PutU32(item.first_bin);
    items.PutU32(item.last_bin);
    items.PutString(item.label);
  }
  writer.AddSection(kQuantItems, items.Release());

  ByteWriter rules;
  AppendRuleStream(rule_set.rules, &rules);
  writer.AddSection(kQuantRules, rules.Release());
  return WriteContainer(writer, path);
}

core::Result<assoc::QuantRuleSet> LoadQuantRuleSet(const std::string& path) {
  obs::Span span("io/serialize/load/quant_rule_set");
  DMT_ASSIGN_OR_RETURN(ContainerReader reader,
                       MapContainer(path, ArtifactType::kQuantRuleSet));
  assoc::QuantRuleSet rule_set;

  DMT_ASSIGN_OR_RETURN(std::span<const std::byte> meta_payload,
                       reader.Section(kMeta));
  ByteReader meta(meta_payload, path + ": META");
  DMT_ASSIGN_OR_RETURN(rule_set.partial_completeness, meta.ReadF64());
  DMT_ASSIGN_OR_RETURN(rule_set.itemsets_mined, meta.ReadU64());
  DMT_ASSIGN_OR_RETURN(rule_set.itemsets_attribute_distinct,
                       meta.ReadU64());
  DMT_RETURN_NOT_OK(meta.ExpectEnd());

  DMT_ASSIGN_OR_RETURN(std::span<const std::byte> items_payload,
                       reader.Section(kQuantItems));
  ByteReader items(items_payload, path + ": QUANT_ITEMS");
  DMT_ASSIGN_OR_RETURN(uint64_t num_items, items.ReadU64());
  if (num_items > items.remaining() / sizeof(uint32_t)) {
    return core::Status::Corruption(path + ": item count " +
                                    std::to_string(num_items) +
                                    " exceeds the QUANT_ITEMS section");
  }
  rule_set.items.resize(num_items);
  for (assoc::QuantItem& item : rule_set.items) {
    DMT_ASSIGN_OR_RETURN(item.attribute, items.ReadU32());
    DMT_ASSIGN_OR_RETURN(uint8_t is_categorical, items.ReadU8());
    item.is_categorical = is_categorical != 0;
    DMT_ASSIGN_OR_RETURN(item.category, items.ReadU32());
    DMT_ASSIGN_OR_RETURN(item.lo, items.ReadF64());
    DMT_ASSIGN_OR_RETURN(item.hi, items.ReadF64());
    DMT_ASSIGN_OR_RETURN(item.first_bin, items.ReadU32());
    DMT_ASSIGN_OR_RETURN(item.last_bin, items.ReadU32());
    DMT_ASSIGN_OR_RETURN(item.label, items.ReadString());
    if (!item.is_categorical && item.first_bin > item.last_bin) {
      return core::Status::Corruption(
          path + ": quant item interval run decreases (" +
          std::to_string(item.first_bin) + " > " +
          std::to_string(item.last_bin) + ")");
    }
  }
  DMT_RETURN_NOT_OK(items.ExpectEnd());

  DMT_ASSIGN_OR_RETURN(std::span<const std::byte> rules_payload,
                       reader.Section(kQuantRules));
  ByteReader rules(rules_payload, path + ": QUANT_RULES");
  DMT_ASSIGN_OR_RETURN(rule_set.rules,
                       ReadRuleStream(&rules, path + ": QUANT_RULES"));
  DMT_RETURN_NOT_OK(rules.ExpectEnd());
  for (const assoc::AssociationRule& rule : rule_set.rules) {
    for (const assoc::Itemset* side : {&rule.antecedent, &rule.consequent}) {
      for (core::ItemId id : *side) {
        if (id >= rule_set.items.size()) {
          return core::Status::Corruption(
              path + ": rule references item " + std::to_string(id) +
              " beyond the " + std::to_string(rule_set.items.size()) +
              " quant items");
        }
      }
    }
  }
  span.AddArg("rules", rule_set.rules.size());
  return rule_set;
}

// ---- DecisionTree -------------------------------------------------------

core::Status WriteDecisionTree(const tree::DecisionTree& tree,
                               const std::string& path) {
  ContainerWriter writer(ArtifactType::kDecisionTree);
  ByteWriter meta;
  meta.PutU64(tree.num_nodes());
  writer.AddSection(kMeta, meta.Release());

  ByteWriter nodes;
  for (size_t n = 0; n < tree.num_nodes(); ++n) {
    const tree::TreeNode& node = tree.node(n);
    nodes.PutU8(node.is_leaf ? 1 : 0);
    nodes.PutU8(static_cast<uint8_t>(node.kind));
    nodes.PutU32(node.majority_class);
    nodes.PutU32(node.attribute);
    nodes.PutU32(node.category);
    nodes.PutF64(node.threshold);
    nodes.PutArray<uint32_t>(node.class_counts);
    nodes.PutArray<uint32_t>(node.children);
  }
  writer.AddSection(kNodes, nodes.Release());

  ByteWriter names;
  const auto& attribute_names =
      tree::internal::TreeAccess::AttributeNames(tree);
  const auto& attribute_categories =
      tree::internal::TreeAccess::AttributeCategories(tree);
  const auto& class_names = tree::internal::TreeAccess::ClassNames(tree);
  names.PutU32(static_cast<uint32_t>(attribute_names.size()));
  for (const std::string& name : attribute_names) names.PutString(name);
  names.PutU32(static_cast<uint32_t>(attribute_categories.size()));
  for (const auto& categories : attribute_categories) {
    names.PutU32(static_cast<uint32_t>(categories.size()));
    for (const std::string& category : categories) {
      names.PutString(category);
    }
  }
  names.PutU32(static_cast<uint32_t>(class_names.size()));
  for (const std::string& name : class_names) names.PutString(name);
  writer.AddSection(kNames, names.Release());
  return WriteContainer(writer, path);
}

core::Result<tree::DecisionTree> LoadDecisionTree(const std::string& path) {
  obs::Span span("io/serialize/load/tree");
  DMT_ASSIGN_OR_RETURN(ContainerReader reader,
                       MapContainer(path, ArtifactType::kDecisionTree));
  DMT_ASSIGN_OR_RETURN(std::span<const std::byte> meta_bytes,
                       reader.Section(kMeta));
  ByteReader meta(meta_bytes, path + ": META");
  DMT_ASSIGN_OR_RETURN(uint64_t num_nodes, meta.ReadU64());
  DMT_RETURN_NOT_OK(meta.ExpectEnd());
  if (num_nodes == 0) {
    return core::Status::Corruption(path + ": tree with zero nodes");
  }

  DMT_ASSIGN_OR_RETURN(std::span<const std::byte> node_bytes,
                       reader.Section(kNodes));
  ByteReader nodes(node_bytes, path + ": NODES");
  // A serialized node occupies at least its fixed fields.
  if (num_nodes > node_bytes.size() / 22) {
    return core::Status::Corruption(path + ": node count " +
                                    std::to_string(num_nodes) +
                                    " exceeds the NODES section");
  }
  tree::DecisionTree tree;
  auto& arena = tree::internal::TreeAccess::Nodes(tree);
  arena.resize(num_nodes);
  for (uint64_t n = 0; n < num_nodes; ++n) {
    tree::TreeNode& node = arena[n];
    DMT_ASSIGN_OR_RETURN(uint8_t is_leaf, nodes.ReadU8());
    DMT_ASSIGN_OR_RETURN(uint8_t kind, nodes.ReadU8());
    if (is_leaf > 1 || kind > 2) {
      return core::Status::Corruption(path + ": node " + std::to_string(n) +
                                      " has an invalid leaf/kind tag");
    }
    node.is_leaf = is_leaf != 0;
    node.kind = static_cast<tree::SplitKind>(kind);
    DMT_ASSIGN_OR_RETURN(node.majority_class, nodes.ReadU32());
    DMT_ASSIGN_OR_RETURN(node.attribute, nodes.ReadU32());
    DMT_ASSIGN_OR_RETURN(node.category, nodes.ReadU32());
    DMT_ASSIGN_OR_RETURN(node.threshold, nodes.ReadF64());
    DMT_ASSIGN_OR_RETURN(node.class_counts,
                         nodes.ReadArray<uint32_t>(nodes.remaining()));
    DMT_ASSIGN_OR_RETURN(node.children,
                         nodes.ReadArray<uint32_t>(nodes.remaining()));
    if (node.class_counts.empty() ||
        node.majority_class >= node.class_counts.size()) {
      return core::Status::Corruption(
          path + ": node " + std::to_string(n) +
          " majority class is out of its histogram's range");
    }
    for (uint32_t child : node.children) {
      if (child >= num_nodes || child == n) {
        return core::Status::Corruption(path + ": node " +
                                        std::to_string(n) +
                                        " has an out-of-range child index");
      }
    }
    if (!node.is_leaf && node.children.empty()) {
      return core::Status::Corruption(path + ": internal node " +
                                      std::to_string(n) + " has no children");
    }
  }
  DMT_RETURN_NOT_OK(nodes.ExpectEnd());

  DMT_ASSIGN_OR_RETURN(std::span<const std::byte> name_bytes,
                       reader.Section(kNames));
  ByteReader names(name_bytes, path + ": NAMES");
  DMT_ASSIGN_OR_RETURN(uint32_t num_attribute_names, names.ReadU32());
  auto& attribute_names = tree::internal::TreeAccess::AttributeNames(tree);
  attribute_names.resize(num_attribute_names);
  for (std::string& name : attribute_names) {
    DMT_ASSIGN_OR_RETURN(name, names.ReadString());
  }
  DMT_ASSIGN_OR_RETURN(uint32_t num_attribute_categories, names.ReadU32());
  auto& attribute_categories =
      tree::internal::TreeAccess::AttributeCategories(tree);
  attribute_categories.resize(num_attribute_categories);
  for (auto& categories : attribute_categories) {
    DMT_ASSIGN_OR_RETURN(uint32_t count, names.ReadU32());
    categories.resize(count);
    for (std::string& category : categories) {
      DMT_ASSIGN_OR_RETURN(category, names.ReadString());
    }
  }
  DMT_ASSIGN_OR_RETURN(uint32_t num_class_names, names.ReadU32());
  auto& class_names = tree::internal::TreeAccess::ClassNames(tree);
  class_names.resize(num_class_names);
  for (std::string& name : class_names) {
    DMT_ASSIGN_OR_RETURN(name, names.ReadString());
  }
  DMT_RETURN_NOT_OK(names.ExpectEnd());
  span.AddArg("nodes", num_nodes);
  return tree;
}

// ---- k-means models -----------------------------------------------------

core::Status WriteKMeansModel(const cluster::ClusteringResult& model,
                              const std::string& path) {
  ContainerWriter writer(ArtifactType::kKMeansModel);
  ByteWriter meta;
  meta.PutU64(model.centers.size());
  meta.PutU64(model.centers.dim());
  meta.PutU64(model.assignments.size());
  meta.PutU64(model.iterations);
  meta.PutU64(model.distance_computations);
  meta.PutF64(model.sse);
  writer.AddSection(kMeta, meta.Release());
  writer.AddArraySection<double>(kCenters, std::span(model.centers.data()));
  writer.AddArraySection<uint32_t>(kAssignments,
                                   std::span(model.assignments));
  return WriteContainer(writer, path);
}

core::Result<cluster::ClusteringResult> LoadKMeansModel(
    const std::string& path) {
  obs::Span span("io/serialize/load/kmeans");
  DMT_ASSIGN_OR_RETURN(ContainerReader reader,
                       MapContainer(path, ArtifactType::kKMeansModel));
  DMT_ASSIGN_OR_RETURN(std::span<const std::byte> meta_bytes,
                       reader.Section(kMeta));
  ByteReader meta(meta_bytes, path + ": META");
  DMT_ASSIGN_OR_RETURN(uint64_t k, meta.ReadU64());
  DMT_ASSIGN_OR_RETURN(uint64_t dim, meta.ReadU64());
  DMT_ASSIGN_OR_RETURN(uint64_t num_points, meta.ReadU64());
  cluster::ClusteringResult model;
  DMT_ASSIGN_OR_RETURN(model.iterations, meta.ReadU64());
  DMT_ASSIGN_OR_RETURN(model.distance_computations, meta.ReadU64());
  DMT_ASSIGN_OR_RETURN(model.sse, meta.ReadF64());
  DMT_RETURN_NOT_OK(meta.ExpectEnd());

  DMT_ASSIGN_OR_RETURN(std::span<const double> centers,
                       reader.SectionAs<double>(kCenters));
  if (dim == 0 ? !centers.empty() : centers.size() / dim != k ||
                                        centers.size() % dim != 0) {
    return core::Status::Corruption(
        path + ": CENTERS holds " + std::to_string(centers.size()) +
        " doubles, META declares k=" + std::to_string(k) + " dim=" +
        std::to_string(dim));
  }
  auto center_set = core::PointSet::FromFlat(
      dim, std::vector<double>(centers.begin(), centers.end()));
  if (!center_set.ok()) {
    return core::Status::Corruption(path + ": " +
                                    center_set.status().message());
  }
  model.centers = std::move(center_set).value();

  DMT_ASSIGN_OR_RETURN(std::span<const uint32_t> assignments,
                       reader.SectionAs<uint32_t>(kAssignments));
  if (assignments.size() != num_points) {
    return core::Status::Corruption(
        path + ": ASSIGNMENTS holds " + std::to_string(assignments.size()) +
        " entries, META declares " + std::to_string(num_points));
  }
  for (uint32_t a : assignments) {
    if (a >= k) {
      return core::Status::Corruption(
          path + ": assignment indexes cluster " + std::to_string(a) +
          " but only " + std::to_string(k) + " centers exist");
    }
  }
  model.assignments.assign(assignments.begin(), assignments.end());
  span.AddArg("centers", k);
  return model;
}

}  // namespace dmt::io

#include "workload/templates.h"

#include <string_view>

#include "common/string_util.h"
#include "workload/dmv.h"

namespace ajr {

namespace {

// Standard 4-table skeleton: o=owner, c=car, d=demographics, a=accidents.
// Edges: c.ownerid = o.id, o.id = d.ownerid, c.id = a.carid.
JoinQuery FourTableSkeleton() {
  JoinQuery q;
  q.tables = {{"o", "owner"}, {"c", "car"}, {"d", "demographics"}, {"a", "accidents"}};
  q.edges = {
      {1, "ownerid", 0, "id", 0},
      {0, "id", 2, "ownerid", 1},
      {1, "id", 3, "carid", 2},
  };
  q.local_predicates.assign(4, nullptr);
  q.output = {{0, "name"}, {3, "driver"}};
  return q;
}

// Six-table skeleton: adds l=location, t=time joined to accidents.
JoinQuery SixTableSkeleton() {
  JoinQuery q;
  q.tables = {{"o", "owner"},     {"c", "car"},  {"d", "demographics"},
              {"a", "accidents"}, {"l", "location"}, {"t", "time"}};
  q.edges = {
      {1, "ownerid", 0, "id", 0}, {0, "id", 2, "ownerid", 1},
      {1, "id", 3, "carid", 2},   {3, "locationid", 4, "id", 3},
      {3, "timeid", 5, "id", 4},
  };
  q.local_predicates.assign(6, nullptr);
  q.output = {{0, "name"}, {3, "driver"}, {4, "city"}};
  return q;
}

// Uniform random row of a table (materialized: the sampled Values seed
// predicate constants, which own their strings).
Row SampleRow(const TableEntry& entry, Rng* rng) {
  return entry.table().Get(rng->NextUint64(entry.table().num_rows()));
}

// Random make name of the given tier.
const char* SampleMakeOfTier(Rng* rng, int tier) {
  const auto& makes = DmvMakes();
  std::vector<const char*> pool;
  for (const auto& m : makes) {
    if (m.tier == tier) pool.push_back(m.name);
  }
  return pool[rng->NextUint64(pool.size())];
}

// Random European country full name (country1 domain).
const char* SampleEuropeanCountryName(Rng* rng) {
  const auto& countries = DmvCountries();
  std::vector<const char*> pool;
  for (const auto& cd : countries) {
    if (cd.region == 1) pool.push_back(cd.name);
  }
  return pool[rng->NextUint64(pool.size())];
}

}  // namespace

DmvQueryGenerator::DmvQueryGenerator(const Catalog* catalog, uint64_t seed)
    : catalog_(catalog), seed_(seed) {}

StatusOr<JoinQuery> DmvQueryGenerator::Generate(int template_id,
                                                size_t variant) const {
  if (template_id < 1 || template_id > kNumFourTableTemplates) {
    return Status::InvalidArgument(StrCat("no 4-table template ", template_id));
  }
  AJR_ASSIGN_OR_RETURN(const TableEntry* owner, catalog_->GetTable("owner"));
  AJR_ASSIGN_OR_RETURN(const TableEntry* car, catalog_->GetTable("car"));
  Rng rng(seed_ ^ (static_cast<uint64_t>(template_id) << 32) ^ variant * 0x9e3779b9ULL);

  JoinQuery q = FourTableSkeleton();
  q.name = StrCat("T", template_id, "/q", variant);
  switch (template_id) {
    case 1: {
      // Example 1 shape. The country is sampled by its natural (skewed)
      // frequency: head countries make the owner leg a bad driving choice
      // the optimizer cannot see, and the econ-OR-lux make pair makes the
      // best inner order flip between the two make groups mid-scan.
      const char* econ = SampleMakeOfTier(&rng, 0);
      const char* lux = SampleMakeOfTier(&rng, 2);
      const Row& owner_row = SampleRow(*owner, &rng);
      int64_t salary = 30000 + rng.NextInt64(0, 40000);
      q.local_predicates[1] = Or({ColCmp("make", CompareOp::kEq, Value(econ)),
                                  ColCmp("make", CompareOp::kEq, Value(lux))});
      q.local_predicates[0] = ColCmp("country1", CompareOp::kEq, owner_row[2]);
      q.local_predicates[2] = ColCmp("salary", CompareOp::kLt, Value(salary));
      break;
    }
    case 2: {
      // Example 2 shape: correlated pairs from sampled rows.
      const Row& car_row = SampleRow(*car, &rng);
      const Row& owner_row = SampleRow(*owner, &rng);
      int64_t age = 30 + rng.NextInt64(0, 35);
      q.local_predicates[1] = And({ColCmp("make", CompareOp::kEq, car_row[2]),
                                   ColCmp("model", CompareOp::kEq, car_row[3])});
      q.local_predicates[0] = And({ColCmp("country3", CompareOp::kEq, owner_row[3]),
                                   ColCmp("city", CompareOp::kEq, owner_row[4])});
      q.local_predicates[2] = ColCmp("age", CompareOp::kLt, Value(age));
      break;
    }
    case 3: {
      // Country-driven; country sampled by natural (skewed) frequency, so
      // the head value shows up often and the owner leg is frequently a
      // misestimated driving choice — the better leg (the sampled make) is
      // only discoverable at run-time.
      const Row& owner_row = SampleRow(*owner, &rng);
      const Row& car_row = SampleRow(*car, &rng);
      int64_t salary = 50000 + rng.NextInt64(0, 70000);
      int64_t serious = 2 + rng.NextInt64(0, 2);
      q.local_predicates[0] = ColCmp("country3", CompareOp::kEq, owner_row[3]);
      q.local_predicates[1] = ColCmp("make", CompareOp::kEq, car_row[2]);
      q.local_predicates[2] = ColCmp("salary", CompareOp::kGe, Value(salary));
      q.local_predicates[3] = ColCmp("seriousness", CompareOp::kGe, Value(serious));
      break;
    }
    case 4: {
      // Example 3 shape: always the skew-head country plus one of its
      // cities. The owner leg is a deceptive driving candidate: defaults
      // give its country3 index a tiny estimated entry count, but 'US' is
      // the zipf head, so a promoted owner leg scans ~28% of the index —
      // the paper's "incorrect index access path" degradation.
      const auto& us = DmvCountries().front();
      const char* city = us.cities[rng.NextUint64(6)];
      const Row& car_row = SampleRow(*car, &rng);
      int64_t year = 1998 + rng.NextInt64(0, 6);
      int64_t age = 35 + rng.NextInt64(0, 20);
      q.local_predicates[1] = And({ColCmp("make", CompareOp::kEq, car_row[2]),
                                   ColCmp("model", CompareOp::kEq, car_row[3]),
                                   ColCmp("year", CompareOp::kLe, Value(year))});
      q.local_predicates[0] = And({ColCmp("country3", CompareOp::kEq, Value(us.iso)),
                                   ColCmp("city", CompareOp::kEq, Value(city))});
      q.local_predicates[2] = ColCmp("age", CompareOp::kLt, Value(age));
      break;
    }
    case 5: {
      // Driving leg locked on Car: a *luxury* make+model pair is rare in
      // the data, so the car scan is both estimated and actually the
      // cheapest by a wide margin — the driving leg never changes. The
      // inner order, however, is wrong: defaults order Owner before
      // Demographics, but for luxury-car owners "salary < ~50k" is a far
      // stronger filter than any country predicate (Example 1's
      // correlation), so inner reordering fires (the paper's Fig 9 note).
      const char* make = SampleMakeOfTier(&rng, 2);
      const MakeDef* def = nullptr;
      for (const auto& m : DmvMakes()) {
        if (std::string_view(m.name) == make) def = &m;
      }
      const char* model = def->models[rng.NextUint64(5)];
      const char* country = SampleEuropeanCountryName(&rng);
      int64_t salary = 40000 + rng.NextInt64(0, 20000);
      q.local_predicates[1] = And({ColCmp("make", CompareOp::kEq, Value(make)),
                                   ColCmp("model", CompareOp::kEq, Value(model))});
      q.local_predicates[0] = ColCmp("country1", CompareOp::kEq, Value(country));
      q.local_predicates[2] = ColCmp("salary", CompareOp::kLt, Value(salary));
      break;
    }
    default:
      break;
  }
  AJR_RETURN_IF_ERROR(q.Validate());
  return q;
}

StatusOr<std::vector<JoinQuery>> DmvQueryGenerator::GenerateMix(
    size_t per_template) const {
  std::vector<JoinQuery> out;
  out.reserve(per_template * kNumFourTableTemplates);
  for (int t = 1; t <= kNumFourTableTemplates; ++t) {
    for (size_t v = 0; v < per_template; ++v) {
      AJR_ASSIGN_OR_RETURN(JoinQuery q, Generate(t, v));
      out.push_back(std::move(q));
    }
  }
  return out;
}

StatusOr<JoinQuery> DmvQueryGenerator::GenerateSixTable(int template_id,
                                                        size_t variant) const {
  if (template_id < 1 || template_id > kNumSixTableTemplates) {
    return Status::InvalidArgument(StrCat("no 6-table template ", template_id));
  }
  AJR_ASSIGN_OR_RETURN(const TableEntry* owner, catalog_->GetTable("owner"));
  AJR_ASSIGN_OR_RETURN(const TableEntry* car, catalog_->GetTable("car"));
  AJR_ASSIGN_OR_RETURN(const TableEntry* loc, catalog_->GetTable("location"));
  Rng rng(seed_ ^ 0x5157000ULL ^ (static_cast<uint64_t>(template_id) << 32) ^
          variant * 0x9e3779b9ULL);

  JoinQuery q = SixTableSkeleton();
  q.name = StrCat("S", template_id, "/q", variant);
  if (template_id == 1) {
    const Row& owner_row = SampleRow(*owner, &rng);
    const Row& loc_row = SampleRow(*loc, &rng);
    int64_t year = 1995 + rng.NextInt64(0, 8);
    int64_t salary = 40000 + rng.NextInt64(0, 60000);
    int64_t acc_year = 2001 + rng.NextInt64(0, 5);
    q.local_predicates[0] = ColCmp("country3", CompareOp::kEq, owner_row[3]);
    q.local_predicates[1] = ColCmp("year", CompareOp::kGe, Value(year));
    q.local_predicates[2] = ColCmp("salary", CompareOp::kLt, Value(salary));
    q.local_predicates[4] = ColCmp("state", CompareOp::kEq, loc_row[2]);
    q.local_predicates[5] = ColCmp("year", CompareOp::kEq, Value(acc_year));
  } else {
    const Row& car_row = SampleRow(*car, &rng);
    const Row& loc_row = SampleRow(*loc, &rng);
    int64_t age = 30 + rng.NextInt64(0, 35);
    int64_t month = 1 + rng.NextInt64(0, 11);
    q.local_predicates[1] = And({ColCmp("make", CompareOp::kEq, car_row[2]),
                                 ColCmp("model", CompareOp::kEq, car_row[3])});
    q.local_predicates[2] = ColCmp("age", CompareOp::kLt, Value(age));
    q.local_predicates[4] = ColCmp("city", CompareOp::kEq, loc_row[1]);
    q.local_predicates[5] = ColCmp("month", CompareOp::kEq, Value(month));
  }
  AJR_RETURN_IF_ERROR(q.Validate());
  return q;
}

StatusOr<JoinQuery> DmvQueryGenerator::GenerateWide(int template_id,
                                                    size_t num_tables,
                                                    size_t variant) const {
  if (template_id < 1 || template_id > kNumWideTemplates) {
    return Status::InvalidArgument(StrCat("no wide template ", template_id));
  }
  if (num_tables < kMinWideTables || num_tables > kMaxWideTables) {
    return Status::InvalidArgument(
        StrCat("wide templates span ", kMinWideTables, "..", kMaxWideTables,
               " tables, got ", num_tables));
  }
  AJR_ASSIGN_OR_RETURN(const TableEntry* owner, catalog_->GetTable("owner"));
  AJR_ASSIGN_OR_RETURN(const TableEntry* acc, catalog_->GetTable("accidents"));
  AJR_ASSIGN_OR_RETURN(const TableEntry* loc, catalog_->GetTable("location"));
  Rng rng(seed_ ^ 0x317DE000ULL ^ (static_cast<uint64_t>(template_id) << 40) ^
          (static_cast<uint64_t>(num_tables) << 24) ^ variant * 0x9e3779b9ULL);

  JoinQuery q = SixTableSkeleton();
  q.name = StrCat("W", template_id, "n", num_tables, "/q", variant);

  // Shared base filters (the S1 shape): enough selectivity on the paper's
  // six tables that the pipeline's head flow is modest before the arms.
  {
    const Row& owner_row = SampleRow(*owner, &rng);
    const Row& loc_row = SampleRow(*loc, &rng);
    int64_t year = 1995 + rng.NextInt64(0, 8);
    int64_t salary = 40000 + rng.NextInt64(0, 60000);
    q.local_predicates[0] = ColCmp("country3", CompareOp::kEq, owner_row[3]);
    q.local_predicates[1] = ColCmp("year", CompareOp::kGe, Value(year));
    q.local_predicates[2] = ColCmp("salary", CompareOp::kLt, Value(salary));
    q.local_predicates[4] = ColCmp("state", CompareOp::kEq, loc_row[2]);
  }

  const size_t extra = num_tables - 6;
  if (template_id == 1) {
    // W1 wide star: every extra leg is an accidents alias probed from Car.
    // Each arm carries its own seriousness+year filter, so the estimated
    // (and actual) per-arm fan-out sits below 1 and the arms differ enough
    // in selectivity that their placement order matters — the property the
    // cardinality-greedy seed and its anti-greedy corruption exercise.
    for (size_t i = 0; i < extra; ++i) {
      const size_t idx = q.tables.size();
      q.tables.push_back({StrCat("a", i + 2), "accidents"});
      q.edges.push_back({1, "id", idx, "carid", q.edges.size()});
      const Row& acc_row = SampleRow(*acc, &rng);
      int64_t serious = 2 + rng.NextInt64(0, 2);
      q.local_predicates.push_back(
          And({ColCmp("seriousness", CompareOp::kGe, Value(serious)),
               ColCmp("year", rng.NextBool() ? CompareOp::kGe : CompareOp::kLe,
                      acc_row[3])}));
    }
  } else {
    // W2 snowflake: arms of (accidents -> location, time) hung off Car,
    // with the filters out on the dimension tables — the arm's selectivity
    // is only visible after two more joins, which is exactly where
    // independence-based estimates degrade with join count.
    size_t added = 0;
    for (size_t arm = 2; added < extra; ++arm) {
      const size_t a_idx = q.tables.size();
      q.tables.push_back({StrCat("a", arm), "accidents"});
      q.edges.push_back({1, "id", a_idx, "carid", q.edges.size()});
      q.local_predicates.push_back(nullptr);
      ++added;
      if (added < extra) {
        const size_t l_idx = q.tables.size();
        const Row& loc_row = SampleRow(*loc, &rng);
        q.tables.push_back({StrCat("l", arm), "location"});
        q.edges.push_back({a_idx, "locationid", l_idx, "id", q.edges.size()});
        q.local_predicates.push_back(
            ColCmp("state", CompareOp::kEq, loc_row[2]));
        ++added;
      }
      if (added < extra) {
        const size_t t_idx = q.tables.size();
        const Row& acc_row = SampleRow(*acc, &rng);
        q.tables.push_back({StrCat("t", arm), "time"});
        q.edges.push_back({a_idx, "timeid", t_idx, "id", q.edges.size()});
        q.local_predicates.push_back(
            ColCmp("year", CompareOp::kGe, acc_row[3]));
        ++added;
      }
    }
  }
  AJR_RETURN_IF_ERROR(q.Validate());
  return q;
}

StatusOr<std::vector<JoinQuery>> DmvQueryGenerator::GenerateSixTableMix(
    size_t count) const {
  std::vector<JoinQuery> out;
  out.reserve(count);
  for (size_t i = 0; i < count; ++i) {
    AJR_ASSIGN_OR_RETURN(JoinQuery q,
                         GenerateSixTable(1 + static_cast<int>(i % 2), i / 2));
    out.push_back(std::move(q));
  }
  return out;
}

JoinQuery DmvQueryGenerator::Example1() {
  JoinQuery q = FourTableSkeleton();
  q.name = "Example1";
  q.local_predicates[1] = Or({ColCmp("make", CompareOp::kEq, Value("Chevrolet")),
                              ColCmp("make", CompareOp::kEq, Value("Mercedes"))});
  q.local_predicates[0] = ColCmp("country1", CompareOp::kEq, Value("Germany"));
  q.local_predicates[2] = ColCmp("salary", CompareOp::kLt, Value(int64_t{50000}));
  return q;
}

JoinQuery DmvQueryGenerator::Example2() {
  JoinQuery q;
  q.name = "Example2";
  q.tables = {{"o", "owner"}, {"c", "car"}};
  q.edges = {{1, "ownerid", 0, "id", 0}};
  q.local_predicates.assign(2, nullptr);
  q.local_predicates[1] = And({ColCmp("make", CompareOp::kEq, Value("Mazda")),
                               ColCmp("model", CompareOp::kEq, Value("323"))});
  q.local_predicates[0] = And({ColCmp("country3", CompareOp::kEq, Value("EG")),
                               ColCmp("city", CompareOp::kEq, Value("Cairo"))});
  q.output = {{0, "name"}, {1, "year"}};
  return q;
}

JoinQuery DmvQueryGenerator::Example3() {
  JoinQuery q = FourTableSkeleton();
  q.name = "Example3";
  q.local_predicates[1] = And({ColCmp("make", CompareOp::kEq, Value("Chevrolet")),
                               ColCmp("model", CompareOp::kEq, Value("Caprice"))});
  q.local_predicates[0] = And({ColCmp("country3", CompareOp::kEq, Value("US")),
                               ColCmp("city", CompareOp::kEq, Value("Augusta"))});
  q.local_predicates[2] = ColCmp("age", CompareOp::kLt, Value(int64_t{52}));
  return q;
}

}  // namespace ajr

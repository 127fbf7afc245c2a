#include "oracle.h"

#include <algorithm>

namespace unistore {
namespace bench {
namespace e2e {
namespace {

using exec::Binding;
using triple::Value;

uint64_t Mix64(uint64_t x) {
  x ^= x >> 30;
  x *= 0xbf58476d1ce4e5b9ull;
  x ^= x >> 27;
  x *= 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

void Fnv(std::string_view s, uint64_t* h) {
  for (char c : s) {
    *h ^= static_cast<uint8_t>(c);
    *h *= 1099511628211ull;
  }
}

const Value& Attr(const triple::Tuple& t, const char* name) {
  return t.attributes.at(name);
}

}  // namespace

void RowsDigest::Add(const Binding& row) {
  uint64_t h = 1469598103934665603ull;
  for (const auto& [var, value] : row) {
    Fnv(var, &h);
    Fnv("=", &h);
    Fnv(value.ToIndexString(), &h);
    Fnv(";", &h);
  }
  sum += Mix64(h);
  ++count;
}

RowsDigest DigestOf(const std::vector<Binding>& rows) {
  RowsDigest d;
  for (const Binding& row : rows) d.Add(row);
  return d;
}

std::string RenderRows(const std::vector<Binding>& rows) {
  std::vector<std::string> lines;
  lines.reserve(rows.size());
  for (const Binding& row : rows) lines.push_back(exec::BindingToString(row));
  std::sort(lines.begin(), lines.end());
  std::string out;
  for (const std::string& line : lines) out += "  " + line + "\n";
  return out;
}

size_t Levenshtein(std::string_view a, std::string_view b) {
  std::vector<size_t> prev(b.size() + 1), cur(b.size() + 1);
  for (size_t j = 0; j <= b.size(); ++j) prev[j] = j;
  for (size_t i = 1; i <= a.size(); ++i) {
    cur[0] = i;
    for (size_t j = 1; j <= b.size(); ++j) {
      const size_t substitute = prev[j - 1] + (a[i - 1] == b[j - 1] ? 0 : 1);
      cur[j] = std::min({prev[j] + 1, cur[j - 1] + 1, substitute});
    }
    std::swap(prev, cur);
  }
  return prev[b.size()];
}

Oracle::Oracle(const core::Bibliography& data,
               const std::vector<triple::Tuple>& contacts)
    : data_(data),
      contacts_(contacts),
      words_(TitleWords(data)),
      series_(SeriesNames(data)) {}

std::vector<Binding> TupleRows(const triple::Tuple& tuple) {
  std::vector<Binding> rows;
  for (const auto& [attribute, value] : tuple.attributes) {
    rows.push_back({{"p", Value::String(attribute)}, {"v", value}});
  }
  return rows;
}

std::vector<Binding> Oracle::SkylineRows() const {
  struct Candidate {
    Binding row;
    int64_t age;
    int64_t cnt;
  };
  std::map<std::string, const triple::Tuple*> pub_by_title;
  for (const triple::Tuple& pub : data_.publications) {
    pub_by_title[Attr(pub, "title").AsString()] = &pub;
  }
  std::map<std::string, const triple::Tuple*> conf_by_name;
  for (const triple::Tuple& conf : data_.conferences) {
    conf_by_name[Attr(conf, "confname").AsString()] = &conf;
  }
  // Block-nested-loop skyline over (age MIN, cnt MAX): a candidate enters
  // the window unless a member dominates it, and evicts the members it
  // dominates.
  std::vector<Candidate> window;
  for (const triple::Tuple& person : data_.persons) {
    const triple::Tuple* pub =
        pub_by_title.at(Attr(person, "has_published").AsString());
    const triple::Tuple* conf =
        conf_by_name.at(Attr(*pub, "published_in").AsString());
    if (Levenshtein(Attr(*conf, "series").AsString(), "ICDE") >= 3) continue;
    Candidate c{{{"name", Attr(person, "name")},
                 {"age", Attr(person, "age")},
                 {"cnt", Attr(person, "num_of_pubs")}},
                Attr(person, "age").AsInt(),
                Attr(person, "num_of_pubs").AsInt()};
    auto dominates = [](const Candidate& a, const Candidate& b) {
      return a.age <= b.age && a.cnt >= b.cnt &&
             (a.age < b.age || a.cnt > b.cnt);
    };
    if (std::any_of(window.begin(), window.end(),
                    [&](const Candidate& w) { return dominates(w, c); })) {
      continue;
    }
    window.erase(std::remove_if(window.begin(), window.end(),
                                [&](const Candidate& w) {
                                  return dominates(c, w);
                                }),
                 window.end());
    window.push_back(std::move(c));
  }
  std::vector<Binding> rows;
  for (Candidate& c : window) rows.push_back(std::move(c.row));
  return rows;
}

std::vector<Binding> Oracle::Expected(const Op& op) const {
  // Persons and contacts both carry an age; the age classes see both.
  std::vector<const triple::Tuple*> aged;
  for (const triple::Tuple& p : data_.persons) aged.push_back(&p);
  for (const triple::Tuple& c : contacts_) aged.push_back(&c);
  std::vector<Binding> rows;
  switch (op.cls) {
    case OpClass::kPoint:
      return TupleRows(op.contact ? contacts_.at(op.target)
                                  : data_.persons.at(op.target));
    case OpClass::kExact:
      for (const triple::Tuple* p : aged) {
        if (Attr(*p, "age").AsInt() == static_cast<int64_t>(op.target)) {
          rows.push_back({{"a", Value::String(p->oid)}});
        }
      }
      return rows;
    case OpClass::kRange: {
      const int64_t lo = static_cast<int64_t>(op.target);
      for (const triple::Tuple* p : aged) {
        const int64_t age = Attr(*p, "age").AsInt();
        if (age >= lo && age < lo + kRangeWidth) {
          rows.push_back(
              {{"a", Value::String(p->oid)}, {"g", Attr(*p, "age")}});
        }
      }
      return rows;
    }
    case OpClass::kSubstring:
      for (const triple::Tuple& pub : data_.publications) {
        const std::string& title = Attr(pub, "title").AsString();
        if (title.find(words_.at(op.target)) != std::string::npos) {
          rows.push_back({{"p", Value::String(pub.oid)},
                          {"t", Attr(pub, "title")}});
        }
      }
      return rows;
    case OpClass::kSimilarity:
      for (const triple::Tuple& conf : data_.conferences) {
        const std::string& series = Attr(conf, "series").AsString();
        if (Levenshtein(series, series_.at(op.target)) < 2) {
          rows.push_back({{"c", Value::String(conf.oid)},
                          {"s", Attr(conf, "series")}});
        }
      }
      return rows;
    case OpClass::kTop5: {
      std::vector<int64_t> ages;
      for (const triple::Tuple* p : aged) {
        const int64_t age = Attr(*p, "age").AsInt();
        if (age >= static_cast<int64_t>(op.target)) ages.push_back(age);
      }
      std::sort(ages.begin(), ages.end());
      ages.resize(std::min(ages.size(), kTopN));
      for (int64_t age : ages) rows.push_back({{"g", Value::Int(age)}});
      return rows;
    }
    case OpClass::kJoin: {
      const Value& title = Attr(data_.persons.at(op.target), "has_published");
      for (const triple::Tuple& pub : data_.publications) {
        if (Attr(pub, "title") == title) {
          rows.push_back({{"t", title}, {"c", Attr(pub, "published_in")}});
        }
      }
      return rows;
    }
    case OpClass::kSkyline:
      return SkylineRows();
    case OpClass::kInsert:
      break;
  }
  return rows;
}

const RowsDigest& Oracle::ExpectedDigest(const Op& op) {
  const auto key = std::make_tuple(op.cls, op.target, op.contact);
  auto it = memo_.find(key);
  if (it == memo_.end()) {
    it = memo_.emplace(key, DigestOf(Expected(op))).first;
  }
  return it->second;
}

}  // namespace e2e
}  // namespace bench
}  // namespace unistore

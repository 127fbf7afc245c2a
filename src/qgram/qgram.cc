#include "qgram/qgram.h"

#include <algorithm>
#include <map>

#include "pgrid/ophash.h"
#include "triple/index.h"

namespace unistore {
namespace qgram {

std::vector<std::string> ExtractQGrams(std::string_view s, size_t q) {
  if (q == 0) return {};
  std::string padded;
  padded.reserve(s.size() + 2 * (q - 1));
  padded.append(q - 1, kPadChar);
  padded.append(s);
  padded.append(q - 1, kPadChar);
  std::vector<std::string> grams;
  if (padded.size() < q) return grams;
  grams.reserve(padded.size() - q + 1);
  for (size_t i = 0; i + q <= padded.size(); ++i) {
    grams.push_back(padded.substr(i, q));
  }
  return grams;
}

std::vector<std::string> DistinctQGrams(std::string_view s, size_t q) {
  auto grams = ExtractQGrams(s, q);
  std::sort(grams.begin(), grams.end());
  grams.erase(std::unique(grams.begin(), grams.end()), grams.end());
  return grams;
}

size_t GramOverlap(std::vector<std::string> a, std::vector<std::string> b) {
  std::sort(a.begin(), a.end());
  std::sort(b.begin(), b.end());
  size_t i = 0, j = 0, overlap = 0;
  while (i < a.size() && j < b.size()) {
    int c = a[i].compare(b[j]);
    if (c == 0) {
      ++overlap;
      ++i;
      ++j;
    } else if (c < 0) {
      ++i;
    } else {
      ++j;
    }
  }
  return overlap;
}

int64_t CountFilterThreshold(size_t len_a, size_t len_b, size_t q,
                             size_t k) {
  // With (q-1)-padding each string has len + q - 1 grams and one edit
  // operation destroys at most q of them.
  const int64_t grams =
      static_cast<int64_t>(std::max(len_a, len_b) + q - 1);
  return grams - static_cast<int64_t>(k * q);
}

std::vector<std::string> SelectGrams(std::string_view target, size_t q,
                                     size_t budget, bool interior_only) {
  const std::vector<std::string> grams = ExtractQGrams(target, q);
  // Positions in play, [first, last): all |t|+q-1, or the |t|-q+1 grams
  // that lie inside `target`. Both spans share their middle.
  size_t first = 0;
  size_t last = grams.size();
  if (interior_only) {
    if (q == 0 || target.size() < q) return {};
    first = q - 1;
    last = target.size();
  }
  if (last - first < budget) return {};
  std::map<std::string_view, size_t> multiplicity;
  std::vector<size_t> order;
  for (size_t i = first; i < last; ++i) {
    ++multiplicity[grams[i]];
    order.push_back(i);
  }
  // Nearest the middle first, the lower position on a tie.
  const size_t middle2 = first + last - 1;  // Twice the middle position.
  auto off_middle = [middle2](size_t i) {
    return 2 * i > middle2 ? 2 * i - middle2 : middle2 - 2 * i;
  };
  std::stable_sort(order.begin(), order.end(),
                   [&off_middle](size_t a, size_t b) {
                     return off_middle(a) < off_middle(b);
                   });
  std::vector<std::string> selected;
  size_t covered = 0;
  for (size_t i : order) {
    if (covered >= budget) break;
    size_t& count = multiplicity[grams[i]];
    if (count == 0) continue;  // Taken at a position nearer the middle.
    covered += count;
    count = 0;
    selected.push_back(grams[i]);
  }
  return selected;
}

std::string QGramIndexString(const std::string& attribute,
                             const std::string& gram) {
  return "g#" + attribute + "#" + gram;
}

pgrid::Key QGramKey(const std::string& attribute, const std::string& gram) {
  return pgrid::OpHash(QGramIndexString(attribute, gram));
}

bool GramsHaveOwnKeys(const std::string& attribute, size_t q) {
  // "g#" + attribute + "#" + gram, counted without building it: the write
  // path asks this for every string triple.
  return 2 + attribute.size() + 1 + q <= pgrid::kCharsPerKey;
}

std::vector<pgrid::Entry> EntriesForTripleQGrams(const triple::Triple& t,
                                                 size_t q, uint64_t version,
                                                 bool deleted) {
  std::vector<pgrid::Entry> entries;
  // No plan reads a posting whose key cannot tell its gram apart (the
  // optimizer's qgram_feasible asks the same question), so none is written.
  if (!t.value.is_string() || !GramsHaveOwnKeys(t.attribute, q)) {
    return entries;
  }
  const std::string encoded = t.Identity();
  for (const std::string& gram : DistinctQGrams(t.value.AsString(), q)) {
    pgrid::Entry e;
    e.key = QGramKey(t.attribute, gram);
    e.id = triple::PostingId(gram, encoded);
    e.version = version;
    e.deleted = deleted;
    entries.push_back(std::move(e));
  }
  return entries;
}

}  // namespace qgram
}  // namespace unistore

#include "core/length_distribution.hh"

#include <algorithm>
#include <cmath>
#include <numeric>

#include "base/logging.hh"

namespace lightllm {
namespace core {

LengthDistribution::LengthDistribution(std::vector<TokenCount> lengths)
    : sorted_(std::move(lengths))
{
    std::sort(sorted_.begin(), sorted_.end());
    total_ = std::accumulate(sorted_.begin(), sorted_.end(),
                             TokenCount{0});
    sumsDirty_ = true;
    ensureSums();
}

void
LengthDistribution::insertValue(TokenCount value)
{
    sorted_.insert(
        std::upper_bound(sorted_.begin(), sorted_.end(), value),
        value);
    total_ += value;
    sumsDirty_ = true;
}

void
LengthDistribution::eraseValue(TokenCount value)
{
    const auto it =
        std::lower_bound(sorted_.begin(), sorted_.end(), value);
    LIGHTLLM_ASSERT(it != sorted_.end() && *it == value,
                    "erase of unrecorded length ", value);
    sorted_.erase(it);
    total_ -= value;
    sumsDirty_ = true;
}

void
LengthDistribution::ensureSums() const
{
    if (!sumsDirty_)
        return;
    prefixSums_.resize(sorted_.size() + 1);
    prefixSums_[0] = 0;
    std::partial_sum(sorted_.begin(), sorted_.end(),
                     prefixSums_.begin() + 1);
    sumsDirty_ = false;
}

TokenCount
LengthDistribution::sample(Rng &rng) const
{
    LIGHTLLM_ASSERT(!sorted_.empty(), "sample from empty distribution");
    const auto index = static_cast<std::size_t>(rng.uniformInt(
        0, static_cast<std::int64_t>(sorted_.size()) - 1));
    return sorted_[index];
}

TokenCount
LengthDistribution::sampleTail(Rng &rng, TokenCount greater_than,
                               TokenCount fallback) const
{
    const auto first = std::upper_bound(sorted_.begin(), sorted_.end(),
                                        greater_than);
    if (first == sorted_.end())
        return fallback;
    const auto lo = static_cast<std::int64_t>(
        std::distance(sorted_.begin(), first));
    const auto hi = static_cast<std::int64_t>(sorted_.size()) - 1;
    const auto index =
        static_cast<std::size_t>(rng.uniformInt(lo, hi));
    return sorted_[index];
}

TokenCount
LengthDistribution::sampleTailAt(double u, TokenCount greater_than,
                                 TokenCount fallback) const
{
    const auto first = std::upper_bound(sorted_.begin(), sorted_.end(),
                                        greater_than);
    if (first == sorted_.end())
        return fallback;
    u = std::clamp(u, 0.0, 1.0);
    const auto lo = static_cast<std::size_t>(
        std::distance(sorted_.begin(), first));
    const auto tail_size = sorted_.size() - lo;
    auto offset = static_cast<std::size_t>(
        u * static_cast<double>(tail_size));
    offset = std::min(offset, tail_size - 1);
    return sorted_[lo + offset];
}

double
LengthDistribution::probGreater(TokenCount x) const
{
    if (sorted_.empty())
        return 0.0;
    const auto first =
        std::upper_bound(sorted_.begin(), sorted_.end(), x);
    const auto count = std::distance(first, sorted_.end());
    return static_cast<double>(count) /
        static_cast<double>(sorted_.size());
}

TokenCount
LengthDistribution::tailMean(TokenCount greater_than,
                             TokenCount fallback) const
{
    const auto first = std::upper_bound(sorted_.begin(), sorted_.end(),
                                        greater_than);
    if (first == sorted_.end())
        return fallback;
    const auto lo = static_cast<std::size_t>(
        std::distance(sorted_.begin(), first));
    // The unconditional mean (lo == 0: every fresh request's peek)
    // needs no prefix sums, so it never pays for a rebuild.
    TokenCount head = 0;
    if (lo > 0) {
        ensureSums();
        head = prefixSums_[lo];
    }
    const auto sum = static_cast<double>(total_ - head);
    const auto count = static_cast<double>(sorted_.size() - lo);
    return static_cast<TokenCount>(std::llround(sum / count));
}

TokenCount
LengthDistribution::tailQuantile(TokenCount greater_than, double q,
                                 TokenCount fallback) const
{
    const auto first = std::upper_bound(sorted_.begin(), sorted_.end(),
                                        greater_than);
    if (first == sorted_.end())
        return fallback;
    q = std::clamp(q, 0.0, 1.0);
    const auto lo = static_cast<std::size_t>(
        std::distance(sorted_.begin(), first));
    const auto tail_size = sorted_.size() - lo;
    std::size_t rank = static_cast<std::size_t>(
        std::ceil(q * static_cast<double>(tail_size)));
    if (rank == 0)
        rank = 1;
    return sorted_[lo + rank - 1];
}

TokenCount
LengthDistribution::quantile(double q) const
{
    if (sorted_.empty())
        return 0;
    q = std::clamp(q, 0.0, 1.0);
    const auto n = static_cast<double>(sorted_.size());
    std::size_t rank =
        static_cast<std::size_t>(std::ceil(q * n));
    if (rank == 0)
        rank = 1;
    return sorted_[rank - 1];
}

TokenCount
LengthDistribution::maxLength() const
{
    return sorted_.empty() ? 0 : sorted_.back();
}

double
LengthDistribution::meanLength() const
{
    if (sorted_.empty())
        return 0.0;
    return static_cast<double>(total_) /
        static_cast<double>(sorted_.size());
}

} // namespace core
} // namespace lightllm

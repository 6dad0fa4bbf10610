#include "common/stats.hh"

#include <algorithm>
#include <bit>
#include <cmath>
#include <stdexcept>
#include <string>

#include "common/logging.hh"

namespace lsim::stats
{

void
Scalar::sample(double value)
{
    if (count_ == 0) {
        min_ = max_ = value;
    } else {
        min_ = std::min(min_, value);
        max_ = std::max(max_, value);
    }
    ++count_;
    sum_ += value;
    const double delta = value - mean_;
    mean_ += delta / static_cast<double>(count_);
    m2_ += delta * (value - mean_);
}

void
Scalar::sampleN(double value, std::uint64_t n)
{
    if (n == 0)
        return;
    Scalar block;
    block.count_ = n;
    block.sum_ = value * static_cast<double>(n);
    block.min_ = block.max_ = value;
    block.mean_ = value;
    block.m2_ = 0.0;
    merge(block);
}

void
Scalar::merge(const Scalar &other)
{
    if (other.count_ == 0)
        return;
    if (count_ == 0) {
        *this = other;
        return;
    }
    const double n1 = static_cast<double>(count_);
    const double n2 = static_cast<double>(other.count_);
    const double delta = other.mean_ - mean_;
    const double total = n1 + n2;
    mean_ += delta * n2 / total;
    m2_ += other.m2_ + delta * delta * n1 * n2 / total;
    count_ += other.count_;
    sum_ += other.sum_;
    min_ = std::min(min_, other.min_);
    max_ = std::max(max_, other.max_);
}

void
Scalar::reset()
{
    *this = Scalar();
}

double
Scalar::variance() const
{
    return count_ ? m2_ / static_cast<double>(count_) : 0.0;
}

double
Scalar::stddev() const
{
    return std::sqrt(variance());
}

int
floorLog2(std::uint64_t v)
{
    if (v == 0)
        panic("floorLog2(0) is undefined");
    return 63 - std::countl_zero(v);
}

Log2Histogram::Log2Histogram(std::uint64_t clamp_value)
    : clamp_(clamp_value)
{
    if (clamp_ == 0 || (clamp_ & (clamp_ - 1)) != 0)
        throw std::invalid_argument(
            "Log2Histogram clamp must be a power of two, got " +
            std::to_string(clamp_));
    // Buckets [1,2), [2,4), ..., [clamp/2, clamp), plus clamp bucket.
    weights_.assign(static_cast<std::size_t>(floorLog2(clamp_)) + 1, 0.0);
}

void
Log2Histogram::sample(std::uint64_t value, double weight)
{
    if (value == 0)
        return;
    ++count_;
    std::size_t idx;
    if (value >= clamp_)
        idx = weights_.size() - 1;
    else
        idx = static_cast<std::size_t>(floorLog2(value));
    weights_[idx] += weight;
}

std::uint64_t
Log2Histogram::bucketLow(std::size_t i) const
{
    return std::uint64_t{1} << i;
}

double
Log2Histogram::totalWeight() const
{
    double total = 0.0;
    for (double w : weights_)
        total += w;
    return total;
}

void
Log2Histogram::merge(const Log2Histogram &other)
{
    if (other.clamp_ != clamp_)
        throw std::invalid_argument(
            "cannot merge Log2Histograms with different clamps");
    for (std::size_t i = 0; i < weights_.size(); ++i)
        weights_[i] += other.weights_[i];
    count_ += other.count_;
}

Log2Histogram
Log2Histogram::normalized() const
{
    Log2Histogram result = *this;
    const double total = totalWeight();
    if (total > 0.0) {
        for (double &w : result.weights_)
            w /= total;
    }
    return result;
}

void
Log2Histogram::reset()
{
    std::fill(weights_.begin(), weights_.end(), 0.0);
    count_ = 0;
}

Log2Histogram
Log2Histogram::fromBuckets(std::uint64_t clamp_value,
                           std::vector<double> weights,
                           std::uint64_t count)
{
    Log2Histogram out(clamp_value);
    if (weights.size() != out.weights_.size())
        throw std::invalid_argument(
            "Log2Histogram::fromBuckets: " +
            std::to_string(weights.size()) + " weights for a " +
            std::to_string(clamp_value) + "-clamp histogram (want " +
            std::to_string(out.weights_.size()) + ")");
    out.weights_ = std::move(weights);
    out.count_ = count;
    return out;
}

} // namespace lsim::stats

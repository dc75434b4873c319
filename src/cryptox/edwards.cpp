#include "cryptox/edwards.hpp"

#include <vector>

namespace citymesh::cryptox::ge {

namespace {

using fe::Fe;

/// An affine point (x, y) as (y + x, y - x, 2d·x·y): what a mixed addition
/// reads. The identity is (1, 1, 0); negation swaps the first two and
/// negates the third.
struct Niels {
  Fe ypx;
  Fe ymx;
  Fe xy2d;
};

/// Row i holds j·16^i·B for j = 1..8.
using Row = std::array<Niels, 8>;
using BaseTable = std::array<Row, 64>;

BaseTable build_base_table() {
  std::vector<Point> points;
  points.reserve(64 * 8);
  Point step = base_point();  // 16^i·B
  for (int i = 0; i < 64; ++i) {
    Point multiple = step;
    for (int j = 0; j < 8; ++j) {
      points.push_back(multiple);
      multiple = add(multiple, step);
    }
    for (int k = 0; k < 4; ++k) step = dbl(step);
  }
  // Every Z at once by Montgomery's trick: one inversion, three
  // multiplications per point.
  std::vector<Fe> prefix(points.size());
  Fe running = fe::one();
  for (std::size_t k = 0; k < points.size(); ++k) {
    prefix[k] = running;
    running = fe::mul(running, points[k].z);
  }
  Fe inverse = fe::invert(running);  // 1 / (Z_0 ... Z_n-1)
  BaseTable table;
  for (std::size_t k = points.size(); k-- > 0;) {
    const Fe zinv = fe::mul(inverse, prefix[k]);
    inverse = fe::mul(inverse, points[k].z);
    const Fe x = fe::mul(points[k].x, zinv);
    const Fe y = fe::mul(points[k].y, zinv);
    table[k / 8][k % 8] = {fe::carried(fe::add(y, x)), fe::carried(fe::sub(y, x)),
                           fe::mul(fe::mul(x, y), fe::kD2)};
  }
  return table;
}

/// digit·(row's 16^i·B) for digit in [-8, 8], reading every entry of the
/// row whatever the digit.
Niels select(const Row& row, std::int8_t digit) {
  const std::int64_t b = digit;
  const std::uint64_t negative = static_cast<std::uint64_t>(b) >> 63;
  const auto magnitude = static_cast<std::uint64_t>(b - 2 * (-static_cast<std::int64_t>(negative) & b));
  Niels out{fe::one(), fe::one(), fe::zero()};
  for (std::uint64_t j = 1; j <= row.size(); ++j) {
    const std::uint64_t hit = ((magnitude ^ j) - 1) >> 63;
    fe::cmov(out.ypx, row[j - 1].ypx, hit);
    fe::cmov(out.ymx, row[j - 1].ymx, hit);
    fe::cmov(out.xy2d, row[j - 1].xy2d, hit);
  }
  const Niels minus{out.ymx, out.ypx, fe::neg(out.xy2d)};
  fe::cmov(out.ypx, minus.ypx, negative);
  fe::cmov(out.ymx, minus.ymx, negative);
  fe::cmov(out.xy2d, minus.xy2d, negative);
  return out;
}

/// p + q for an affine q: the unified addition with Z2 = 1.
Point add_mixed(const Point& p, const Niels& q) {
  const Fe a = fe::mul(fe::sub(p.y, p.x), q.ymx);
  const Fe b = fe::mul(fe::add(p.y, p.x), q.ypx);
  const Fe c = fe::mul(p.t, q.xy2d);
  const Fe d = fe::add(p.z, p.z);
  const Fe e = fe::sub(b, a);
  const Fe f = fe::sub(d, c);
  const Fe g = fe::add(d, c);
  const Fe h = fe::add(b, a);
  return {fe::mul(e, f), fe::mul(g, h), fe::mul(f, g), fe::mul(e, h)};
}

}  // namespace

Point base_mult(const std::array<std::uint8_t, 32>& scalar) {
  static const BaseTable table = build_base_table();

  // Signed radix-16 digits: a = sum_i e_i·16^i with e_i in [-8, 8).
  // The top digit absorbs the last carry and stays <= 8 since a < 2^255.
  std::array<std::int8_t, 64> e;
  for (int i = 0; i < 32; ++i) {
    e[2 * i] = static_cast<std::int8_t>(scalar[i] & 15);
    e[2 * i + 1] = static_cast<std::int8_t>(scalar[i] >> 4);
  }
  std::int8_t carry = 0;
  for (int i = 0; i < 63; ++i) {
    e[i] = static_cast<std::int8_t>(e[i] + carry);
    carry = static_cast<std::int8_t>((e[i] + 8) >> 4);
    e[i] = static_cast<std::int8_t>(e[i] - carry * 16);
  }
  e[63] = static_cast<std::int8_t>(e[63] + carry);

  Point acc = identity();
  for (int i = 0; i < 64; ++i) acc = add_mixed(acc, select(table[i], e[i]));
  return acc;
}

}  // namespace citymesh::cryptox::ge

#include "synth/functions.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "support/rng.hpp"

namespace citroen::synth {

double ackley(const Vec& x) {
  const double n = static_cast<double>(x.size());
  double sum_sq = 0.0, sum_cos = 0.0;
  for (double v : x) {
    sum_sq += v * v;
    sum_cos += std::cos(2.0 * M_PI * v);
  }
  return -20.0 * std::exp(-0.2 * std::sqrt(sum_sq / n)) -
         std::exp(sum_cos / n) + 20.0 + M_E;
}

double rosenbrock(const Vec& x) {
  double acc = 0.0;
  for (std::size_t i = 0; i + 1 < x.size(); ++i) {
    const double a = x[i + 1] - x[i] * x[i];
    const double b = 1.0 - x[i];
    acc += 100.0 * a * a + b * b;
  }
  return acc;
}

double rastrigin(const Vec& x) {
  double acc = 10.0 * static_cast<double>(x.size());
  for (double v : x) acc += v * v - 10.0 * std::cos(2.0 * M_PI * v);
  return acc;
}

double griewank(const Vec& x) {
  double sum = 0.0, prod = 1.0;
  for (std::size_t i = 0; i < x.size(); ++i) {
    sum += x[i] * x[i] / 4000.0;
    prod *= std::cos(x[i] / std::sqrt(static_cast<double>(i + 1)));
  }
  return sum - prod + 1.0;
}

namespace {

heuristics::Box uniform_box(std::size_t dim, double lo, double hi) {
  return heuristics::Box{Vec(dim, lo), Vec(dim, hi)};
}

}  // namespace

Task make_synthetic(const std::string& name, std::size_t dim) {
  if (name == "ackley")
    return {"ackley" + std::to_string(dim), uniform_box(dim, -5.0, 10.0),
            ackley, 0.0};
  if (name == "rosenbrock")
    return {"rosenbrock" + std::to_string(dim), uniform_box(dim, -5.0, 10.0),
            rosenbrock, 0.0};
  if (name == "rastrigin")
    return {"rastrigin" + std::to_string(dim),
            uniform_box(dim, -5.12, 5.12), rastrigin, 0.0};
  if (name == "griewank")
    return {"griewank" + std::to_string(dim), uniform_box(dim, -10.0, 10.0),
            griewank, 0.0};
  throw std::runtime_error("unknown synthetic function: " + name);
}

Task make_push14() {
  // Two pushers (position, angle, push duration ...) move two objects
  // toward fixed targets; reward is sparse: distance reduction only when
  // a push connects. 14 parameters in [0,1] scaled internally.
  Task t;
  t.name = "push14";
  t.box = uniform_box(14, 0.0, 1.0);
  t.f = [](const Vec& x) {
    auto segment = [&](int base, double ox, double oy) {
      // pusher start, direction, and distance
      const double px = 4.0 * x[static_cast<std::size_t>(base)] - 2.0;
      const double py = 4.0 * x[static_cast<std::size_t>(base) + 1] - 2.0;
      const double ang = 2.0 * M_PI * x[static_cast<std::size_t>(base) + 2];
      const double dist = 2.0 * x[static_cast<std::size_t>(base) + 3];
      const double dx = std::cos(ang), dy = std::sin(ang);
      // closest approach of the push ray to the object
      const double relx = ox - px, rely = oy - py;
      const double along = std::clamp(relx * dx + rely * dy, 0.0, dist);
      const double cx = px + along * dx, cy = py + along * dy;
      const double miss = std::hypot(ox - cx, oy - cy);
      double nox = ox, noy = oy;
      if (miss < 0.35) {
        // connected: the object slides along the push direction
        const double carry = std::max(0.0, dist - along);
        nox += dx * carry;
        noy += dy * carry;
      }
      return std::pair<double, double>{nox, noy};
    };
    // object 1 at (0,-1) -> target (2,1); object 2 at (0,1) -> (-2,1)
    auto [o1x, o1y] = segment(0, 0.0, -1.0);
    auto [o2x, o2y] = segment(4, 0.0, 1.0);
    // second pushes (3 params each reused from the tail of x)
    auto [p1x, p1y] = segment(8, o1x, o1y);
    std::pair<double, double> second2 = {o2x, o2y};
    {
      const double px = 4.0 * x[12] - 2.0;
      const double ang = 2.0 * M_PI * x[13];
      const double dx = std::cos(ang), dy = std::sin(ang);
      const double relx = o2x - px, rely = o2y - (-2.0);
      const double along = std::clamp(relx * dx + rely * dy, 0.0, 1.5);
      const double cx = px + along * dx, cy = -2.0 + along * dy;
      if (std::hypot(o2x - cx, o2y - cy) < 0.35) {
        second2 = {o2x + dx * 0.8, o2y + dy * 0.8};
      }
    }
    const double d1 = std::hypot(p1x - 2.0, p1y - 1.0);
    const double d2 = std::hypot(second2.first + 2.0, second2.second - 1.0);
    return d1 + d2;  // minimise remaining distance to the targets
  };
  t.optimum = 0.0;
  return t;
}

Task make_rover60() {
  // 30 control points in [0,1]^2 define a piecewise-linear trajectory
  // from (0,0) to (1,1) through a field of circular obstacles; cost =
  // obstacle penalties + endpoint misses (best reward 5 in the paper; we
  // minimise the negated reward).
  Task t;
  t.name = "rover60";
  t.box = uniform_box(60, 0.0, 1.0);
  // Fixed obstacle layout (deterministic).
  static const std::vector<std::array<double, 3>> obstacles = [] {
    std::vector<std::array<double, 3>> obs;
    Rng rng(1234);
    for (int i = 0; i < 15; ++i) {
      obs.push_back({rng.uniform(0.1, 0.9), rng.uniform(0.1, 0.9),
                     rng.uniform(0.05, 0.12)});
    }
    return obs;
  }();
  t.f = [](const Vec& x) {
    double cost = 0.0;
    double px = 0.0, py = 0.0;
    for (std::size_t i = 0; i <= 30; ++i) {
      const double nx = i < 30 ? x[2 * i] : 1.0;
      const double ny = i < 30 ? x[2 * i + 1] : 1.0;
      // sample the segment against the obstacles
      for (int s = 0; s <= 4; ++s) {
        const double f = s / 4.0;
        const double qx = px + f * (nx - px);
        const double qy = py + f * (ny - py);
        for (const auto& o : obstacles) {
          const double d = std::hypot(qx - o[0], qy - o[1]);
          if (d < o[2]) cost += (o[2] - d) * 20.0;
        }
      }
      cost += 0.05 * std::hypot(nx - px, ny - py);  // path length
      px = nx;
      py = ny;
    }
    // start/end anchoring (start is fixed; the first point should be near
    // the origin for a smooth launch)
    cost += 2.0 * std::hypot(x[0], x[1]);
    return cost - 5.0;  // align with the paper's "best reward 5" scale
  };
  t.optimum = -5.0;
  return t;
}

Task make_cheetah102() {
  // Linear policy a = W s on a toy planar hopper: 6 state dims, 17
  // actuator mixes -> 102 weights. Reward = forward distance - energy.
  Task t;
  t.name = "cheetah102";
  t.box = uniform_box(102, -1.0, 1.0);
  t.f = [](const Vec& w) {
    double pos = 0.0, vel = 0.0, height = 1.0, hvel = 0.0, phase = 0.0,
           energy = 0.0;
    for (int step = 0; step < 60; ++step) {
      const double s[6] = {pos * 0.05, vel, height, hvel, std::sin(phase),
                           std::cos(phase)};
      double torque = 0.0, hop = 0.0;
      for (int a = 0; a < 17; ++a) {
        double act = 0.0;
        for (int k = 0; k < 6; ++k)
          act += w[static_cast<std::size_t>(a * 6 + k)] * s[k];
        act = std::tanh(act);
        torque += (a % 2 == 0 ? act : 0.5 * act);
        hop += (a % 3 == 0 ? act : 0.0);
        energy += 0.002 * act * act;
      }
      torque /= 9.0;
      hop /= 6.0;
      // crude hopper physics
      hvel += 0.3 * hop - 0.15;                    // gravity vs hop thrust
      height = std::max(0.2, height + 0.1 * hvel);
      if (height <= 0.21) hvel = std::abs(hvel) * 0.4;
      const double traction = height < 0.8 ? 1.0 : 0.2;
      vel += traction * 0.4 * torque - 0.05 * vel;
      pos += 0.1 * vel;
      phase += 0.4 + 0.1 * torque;
    }
    return -(pos - energy);  // maximise distance minus energy
  };
  t.optimum = -1e9;
  return t;
}

Task make_nas36() {
  // NAS-Bench-like surrogate: 36 continuous parameters quantised into
  // operation choices; accuracy landscape = smooth base + cell-dependent
  // bumps, giving plateaus and discontinuities like the real benchmark.
  Task t;
  t.name = "nas36";
  t.box = uniform_box(36, 0.0, 1.0);
  t.f = [](const Vec& x) {
    double acc = 0.90;
    for (std::size_t i = 0; i < 36; ++i) {
      const int op = std::min(2, static_cast<int>(x[i] * 3.0));
      const double centred = x[i] - 0.5;
      acc += (op == 1 ? 0.002 : op == 2 ? -0.001 : 0.0005) *
             std::cos(7.0 * static_cast<double>(i));
      acc -= 0.0008 * centred * centred;
    }
    // pairwise interactions between adjacent "edges"
    for (std::size_t i = 0; i + 1 < 36; i += 2) {
      const int a = std::min(2, static_cast<int>(x[i] * 3.0));
      const int b = std::min(2, static_cast<int>(x[i + 1] * 3.0));
      if (a == 1 && b == 1) acc += 0.0015;
      if (a == 2 && b == 2) acc -= 0.002;
    }
    return -acc;  // maximise accuracy
  };
  t.optimum = -1.0;
  return t;
}

Task make_lasso180() {
  // Weighted Lasso on synthetic "genotype" data: X is 96 x 180 with a
  // sparse true signal; parameters are per-feature penalty weights in
  // [0,1]; objective = validation MSE after 25 coordinate-descent steps.
  Task t;
  t.name = "lasso180";
  t.box = uniform_box(180, 0.0, 1.0);

  struct Data {
    std::vector<Vec> x_train, x_val;
    Vec y_train, y_val;
  };
  static const Data data = [] {
    Data d;
    Rng rng(77);
    Vec w_true(180, 0.0);
    for (int i = 0; i < 12; ++i)
      w_true[rng.uniform_index(180)] = rng.uniform(-2.0, 2.0);
    auto gen = [&](std::size_t n, std::vector<Vec>& xs, Vec& ys) {
      for (std::size_t r = 0; r < n; ++r) {
        Vec row(180);
        for (auto& v : row) v = rng.uniform(-1.0, 1.0);
        double y = rng.normal(0.0, 0.05);
        for (std::size_t i = 0; i < 180; ++i) y += row[i] * w_true[i];
        xs.push_back(std::move(row));
        ys.push_back(y);
      }
    };
    gen(96, d.x_train, d.y_train);
    gen(48, d.x_val, d.y_val);
    return d;
  }();

  t.f = [](const Vec& lam) {
    // Coordinate descent for the weighted Lasso.
    Vec w(180, 0.0);
    Vec residual = data.y_train;
    const std::size_t n = data.x_train.size();
    for (int it = 0; it < 25; ++it) {
      for (std::size_t j = 0; j < 180; ++j) {
        double rho = 0.0, zj = 0.0;
        for (std::size_t r = 0; r < n; ++r) {
          const double xij = data.x_train[r][j];
          rho += xij * (residual[r] + xij * w[j]);
          zj += xij * xij;
        }
        const double penalty = 4.0 * lam[j] * static_cast<double>(n) / 96.0;
        double nw = 0.0;
        if (rho > penalty) nw = (rho - penalty) / zj;
        if (rho < -penalty) nw = (rho + penalty) / zj;
        const double delta = nw - w[j];
        if (delta != 0.0) {
          for (std::size_t r = 0; r < n; ++r)
            residual[r] -= delta * data.x_train[r][j];
          w[j] = nw;
        }
      }
    }
    double mse = 0.0;
    for (std::size_t r = 0; r < data.x_val.size(); ++r) {
      double pred = 0.0;
      for (std::size_t j = 0; j < 180; ++j) pred += data.x_val[r][j] * w[j];
      const double e = pred - data.y_val[r];
      mse += e * e;
    }
    return mse / static_cast<double>(data.x_val.size());
  };
  t.optimum = 0.0;
  return t;
}

Task make_task(const std::string& spec) {
  if (spec == "push14") return make_push14();
  if (spec == "rover60") return make_rover60();
  if (spec == "cheetah102") return make_cheetah102();
  if (spec == "nas36") return make_nas36();
  if (spec == "lasso180") return make_lasso180();
  // "<fn><dim>" form.
  for (const char* fn : {"ackley", "rosenbrock", "rastrigin", "griewank"}) {
    const std::string prefix(fn);
    if (spec.rfind(prefix, 0) == 0) {
      const std::size_t dim =
          static_cast<std::size_t>(std::stoi(spec.substr(prefix.size())));
      return make_synthetic(prefix, dim);
    }
  }
  throw std::runtime_error("unknown task: " + spec);
}

}  // namespace citroen::synth

package repro.geo

import org.scalatest.funsuite.AnyFunSuite

class GeoSpec extends AnyFunSuite {

  test("projectRatio endpoints and midpoint") {
    val a = XY(0, 0); val b = XY(10, 0)
    assert(Geo.projectRatio(XY(-5, 3), a, b) == 0.0)
    assert(Geo.projectRatio(XY(5, 3), a, b) === 0.5)
    assert(Geo.projectRatio(XY(50, 3), a, b) < 1.0) // clamped below 1
  }

  test("projectRatio of degenerate segment is 0") {
    assert(Geo.projectRatio(XY(1, 1), XY(2, 2), XY(2, 2)) == 0.0)
  }

  test("pointSegDist perpendicular case") {
    assert(math.abs(Geo.pointSegDist(XY(5, 7), XY(0, 0), XY(10, 0)) - 7.0) < 1e-12)
  }

  test("pointSegDist beyond endpoint uses endpoint distance") {
    assert(math.abs(Geo.pointSegDist(XY(13, 4), XY(0, 0), XY(10, 0)) - 5.0) < 1e-12)
  }

  test("pointSegDist is non-negative and bounded by endpoint distances (property)") {
    val rnd = new scala.util.Random(99)
    def c() = rnd.nextDouble() * 200 - 100
    (1 to 500).foreach { _ =>
      val p = XY(c(), c()); val a = XY(c(), c()); val b = XY(c(), c())
      val d = Geo.pointSegDist(p, a, b)
      assert(d >= -1e-12)
      assert(d <= math.min(p.dist(a), p.dist(b)) + 1e-9)
    }
  }

  test("lerp endpoints") {
    val a = XY(1, 2); val b = XY(5, 10)
    assert(Geo.lerp(a, b, 0.0) == a)
    assert(Geo.lerp(a, b, 1.0) == b)
    assert(Geo.lerp(a, b, 0.5) == XY(3, 6))
  }

  private def cosine(u: XY, v: XY): Double = Geo.cosine(u, u.norm, v, v.norm)

  test("cosine of parallel, orthogonal, opposite vectors") {
    assert(math.abs(cosine(XY(1, 0), XY(3, 0)) - 1.0) < 1e-12)
    assert(math.abs(cosine(XY(1, 0), XY(0, 2))) < 1e-12)
    assert(math.abs(cosine(XY(1, 0), XY(-4, 0)) + 1.0) < 1e-12)
    assert(cosine(XY(0, 0), XY(1, 1)) == 0.0)
  }
}

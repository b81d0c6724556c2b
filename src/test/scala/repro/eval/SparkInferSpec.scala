package repro.eval

import repro.{SparkSpec, TestWorld}
import repro.core.{Trmma, TrmmaConfig, TrmmaModel, TruthMatcher}
import repro.mm.{MapMatcher, Nearest}
import repro.recovery.{LinearInterp, RouteRecoverer}
import repro.traj.{MatchedRoute, Recovered, Traj}

/** A matcher that must not be called. */
class ThrowingMatcher extends MapMatcher {
  val name = "Throws"
  def matchTraj(t: Traj): MatchedRoute = throw new IllegalStateException(s"traj ${t.id} matched again")
}

/** The harness's one-pass-per-matcher evaluation on the shared small world. */
class SparkInferSpec extends SparkSpec {
  import TestWorld._

  private lazy val ts = testSet.take(24)
  private lazy val trmma = TrmmaModel.init(net, TrmmaConfig(), node2vec)

  private def bits(out: Recovered): Seq[(Int, Long, Long)] = out.points.toSeq.map { p =>
    (p.seg, java.lang.Double.doubleToLongBits(p.r), java.lang.Double.doubleToLongBits(p.t))
  }

  test("route recoverers on a matcher's pass never call their matcher and equal recover(t) bit for bit") {
    val blind = new ThrowingMatcher
    Seq[MapMatcher](new TruthMatcher, new Nearest(net, planner)).foreach { m =>
      val routes = SparkInfer.mapMatch(spark, net, m, ts)
      assert(routes.outputs.map(_.id) == ts.map(_.id))
      Seq[(RouteRecoverer, RouteRecoverer)](
        new Trmma(trmma, blind, cfg.epsilon) -> new Trmma(trmma, m, cfg.epsilon),
        new LinearInterp(net, blind, cfg.epsilon, "Linear") -> new LinearInterp(net, m, cfg.epsilon, "Linear"),
      ).foreach { case (onPass, matching) =>
        val p = SparkInfer.recovery(spark, net, onPass, ts, _ => routes)
        assert(p.outputs.map(bits) == ts.map(t => bits(matching.recover(t))), s"${onPass.name} on ${m.name}")
        assert(p.scores.secPer1000 >= routes.scores.secPer1000)
        intercept[IllegalStateException](onPass.recover(ts.head))
      }
    }
  }

  test("a pass over another test set is refused") {
    val routes = SparkInfer.mapMatch(spark, net, new TruthMatcher, ts.take(3))
    intercept[IllegalArgumentException] {
      SparkInfer.recovery(spark, net, new LinearInterp(net, new ThrowingMatcher, cfg.epsilon, "Linear"), ts, _ => routes)
    }
  }
}

package repro.geo

import org.scalatest.funsuite.AnyFunSuite
import repro.TestWorld

class RoutePlannerSpec extends AnyFunSuite {
  private val net = TestWorld.net
  private lazy val planner = TestWorld.planner

  test("plan from a segment to itself is empty") {
    assert(planner.plan(5, 5) == Nil)
  }

  test("plan ends at the target and chains over successors") {
    val rnd = new scala.util.Random(17)
    (1 to 50).foreach { _ =>
      val a = rnd.nextInt(net.numSegments); val b = rnd.nextInt(net.numSegments)
      val path = planner.plan(a, b)
      if (a != b) {
        assert(path.nonEmpty && path.last == b)
        (a :: path).sliding(2).foreach {
          case List(x, y) => assert(net.nextSegments(x).contains(y), s"$x !-> $y")
          case _          => ()
        }
      }
    }
  }

  test("stitch collapses duplicates and keeps all input segments") {
    val rnd = new scala.util.Random(19)
    (1 to 30).foreach { _ =>
      val matched = Seq.fill(5)(rnd.nextInt(net.numSegments))
      val route = planner.stitch(matched)
      matched.foreach(s => assert(route.contains(s)))
      route.sliding(2).foreach {
        case List(x, y) => assert(x != y)
        case _          => ()
      }
    }
  }

  test("statistics steer planning towards historically frequent transitions") {
    // A trained planner's neg-log-prob for a transition seen in training
    // must be lower than for an unseen sibling at the same junction.
    val seen = TestWorld.trainSet.flatMap(_.route.toSeq.sliding(2).collect {
      case Seq(a, b) => (a, b)
    }).groupBy(identity).view.mapValues(_.size).toMap
    val candidates = for {
      ((a, b), n) <- seen.toSeq if n >= 5
      sibling <- TestWorld.net.nextSegments(a).find(s => s != b && !seen.contains((a, s)))
    } yield (a, b, sibling)
    assume(candidates.nonEmpty)
    val ok = candidates.count { case (a, b, c) =>
      planner.negLogProb(a, b) < planner.negLogProb(a, c)
    }
    assert(ok.toDouble / candidates.size > 0.95, s"$ok/${candidates.size}")
  }

  test("shortestPathOnly planner still finds valid routes") {
    val sp = new RoutePlanner(net, Map.empty, Map.empty, beta = 0.0)
    val path = sp.plan(0, net.numSegments - 1)
    assert(path.nonEmpty && path.last == net.numSegments - 1)
  }

  test("plan jumps straight to an unreachable target") {
    val p = new RoutePlanner(TestWorld.oneWayDeadEnd, Map.empty, Map.empty, beta = 0.0)
    assert(p.plan(0, 2) == List(2))
    assert(p.plan(2, 0) == List(0))
    assert(p.plan(2, 1) == List(1))
  }
}
